#pragma once

#include <array>
#include <cstdint>
#include <string>

#include "tt/truth_table.hpp"

namespace rcgp::rqfp {

/// Inverter configuration of one RQFP logic gate.
///
/// An RQFP gate (Fig. 1(a) of the paper) has three inputs (a,b,c), three
/// internal 3-input AQFP majority gates, and an inverter slot in front of
/// every majority input: 9 slots = 512 configurations. Bit (3*k + i) of
/// `bits` complements input i of majority k, so output k is
///   y_k = MAJ(a ^ inv(k,0), b ^ inv(k,1), c ^ inv(k,2)).
class InvConfig {
public:
  constexpr InvConfig() = default;
  constexpr explicit InvConfig(std::uint16_t bits) : bits_(bits & 0x1FF) {}

  constexpr std::uint16_t bits() const { return bits_; }

  constexpr bool inverts(unsigned maj, unsigned input) const {
    return (bits_ >> (3 * maj + input)) & 1;
  }
  constexpr InvConfig with_flip(unsigned slot) const {
    return InvConfig(static_cast<std::uint16_t>(bits_ ^ (1u << slot)));
  }

  /// 3-bit row for majority `maj` (bit i complements input i).
  constexpr unsigned row(unsigned maj) const {
    return (bits_ >> (3 * maj)) & 7;
  }
  static constexpr InvConfig from_rows(unsigned r0, unsigned r1, unsigned r2) {
    return InvConfig(
        static_cast<std::uint16_t>((r0 & 7) | ((r1 & 7) << 3) | ((r2 & 7) << 6)));
  }

  /// "101-100-000"-style string as used in the paper's Fig. 3 (each group
  /// lists the three inverter bits of one majority, input 0 first).
  std::string to_string() const;
  static InvConfig parse(const std::string& text);

  bool operator==(const InvConfig&) const = default;

  /// The normal (logically reversible) RQFP gate of Fig. 1(a):
  /// R(a,b,c) = {M(!a,b,c), M(a,!b,c), M(a,b,!c)}.
  static constexpr InvConfig reversible() { return from_rows(1, 2, 4); }

  /// 1-to-3 splitter rows for R(1, a, 0): every majority computes
  /// M(1, a, 0) = a (input 0 = constant 1, input 2 = constant 1 inverted).
  static constexpr InvConfig splitter() { return from_rows(4, 4, 4); }

  /// All three outputs equal to MAJ(a^c0, b^c1, c^c2): identical rows.
  static constexpr InvConfig triple(unsigned row_bits) {
    return from_rows(row_bits, row_bits, row_bits);
  }

private:
  std::uint16_t bits_ = 0;
};

/// Evaluates one RQFP gate bit-parallel on 64-bit words. Inline: the
/// one-word offspring evaluator calls it once per re-simulated gate.
inline std::array<std::uint64_t, 3> eval_gate_words(InvConfig config,
                                                    std::uint64_t a,
                                                    std::uint64_t b,
                                                    std::uint64_t c) {
  std::array<std::uint64_t, 3> out{};
  for (unsigned k = 0; k < 3; ++k) {
    // Inverter bit i of row k as an all-zeros/all-ones mask.
    const unsigned row = config.row(k);
    const std::uint64_t x = a ^ (0 - std::uint64_t{row & 1});
    const std::uint64_t y = b ^ (0 - std::uint64_t{(row >> 1) & 1});
    const std::uint64_t z = c ^ (0 - std::uint64_t{(row >> 2) & 1});
    out[k] = (x & y) | (x & z) | (y & z);
  }
  return out;
}

/// Evaluates one RQFP gate on truth tables.
std::array<tt::TruthTable, 3> eval_gate_tables(InvConfig config,
                                               const tt::TruthTable& a,
                                               const tt::TruthTable& b,
                                               const tt::TruthTable& c);

/// Allocation-reusing variant of eval_gate_tables: writes the three output
/// tables into o0..o2 (reshaped to the operands' arity when needed) through
/// the runtime-dispatched SIMD kernels (rqfp/simd.hpp) — one pass over the
/// input words computes all three majorities, no temporaries. This is the
/// simulation hot path; the outputs may be moved-from tables from a
/// previous call, but must not alias the inputs.
void eval_gate_tables_into(InvConfig config, const tt::TruthTable& a,
                           const tt::TruthTable& b, const tt::TruthTable& c,
                           tt::TruthTable& o0, tt::TruthTable& o1,
                           tt::TruthTable& o2);

/// Per-gate JJ costs of the AQFP realization (paper §4): an RQFP gate is
/// 3 splitters + 3 majorities = 3*2 + 3*6 = 24 JJs; an RQFP buffer is two
/// cascaded AQFP buffers = 4 JJs.
inline constexpr unsigned kJjsPerGate = 24;
inline constexpr unsigned kJjsPerBuffer = 4;

} // namespace rcgp::rqfp
