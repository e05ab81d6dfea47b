#include "rqfp/gate.hpp"

#include <stdexcept>

#include "rqfp/simd.hpp"

namespace rcgp::rqfp {

std::string InvConfig::to_string() const {
  std::string s;
  for (unsigned k = 0; k < 3; ++k) {
    if (k) {
      s.push_back('-');
    }
    for (unsigned i = 0; i < 3; ++i) {
      s.push_back(inverts(k, i) ? '1' : '0');
    }
  }
  return s;
}

InvConfig InvConfig::parse(const std::string& text) {
  if (text.size() != 11 || text[3] != '-' || text[7] != '-') {
    throw std::invalid_argument("InvConfig::parse: expect \"xxx-xxx-xxx\"");
  }
  std::uint16_t bits = 0;
  unsigned slot = 0;
  for (const char c : text) {
    if (c == '-') {
      continue;
    }
    if (c == '1') {
      bits |= 1u << slot;
    } else if (c != '0') {
      throw std::invalid_argument("InvConfig::parse: invalid character");
    }
    ++slot;
  }
  return InvConfig(bits);
}

void eval_gate_tables_into(InvConfig config, const tt::TruthTable& a,
                           const tt::TruthTable& b, const tt::TruthTable& c,
                           tt::TruthTable& o0, tt::TruthTable& o1,
                           tt::TruthTable& o2) {
  if (a.num_vars() != b.num_vars() || a.num_vars() != c.num_vars()) {
    throw std::invalid_argument("eval_gate_tables: operand arity mismatch");
  }
  tt::TruthTable* const out[3] = {&o0, &o1, &o2};
  for (tt::TruthTable* t : out) {
    // A moved-from table keeps its arity but loses its words, so check both.
    if (t->num_vars() != a.num_vars() || t->num_words() != a.num_words()) {
      *t = tt::TruthTable(a.num_vars());
    }
  }
  simd::kernels().gate3(config.bits(), a.data(), b.data(), c.data(),
                        o0.data(), o1.data(), o2.data(), a.num_words());
  for (tt::TruthTable* t : out) {
    // Inversion masks flip the unused high bits of sub-word tables.
    t->normalize();
  }
}

std::array<tt::TruthTable, 3> eval_gate_tables(InvConfig config,
                                               const tt::TruthTable& a,
                                               const tt::TruthTable& b,
                                               const tt::TruthTable& c) {
  std::array<tt::TruthTable, 3> out;
  eval_gate_tables_into(config, a, b, c, out[0], out[1], out[2]);
  return out;
}

} // namespace rcgp::rqfp
