#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "rqfp/netlist.hpp"
#include "rqfp/sim_batch.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::rqfp {

/// Exhaustive simulation: truth table of every port over the PIs.
/// Index = port number. Requires num_pis() <= TruthTable::kMaxVars.
std::vector<tt::TruthTable> simulate_ports(const Netlist& net);

/// Exhaustive simulation of the primary outputs only.
std::vector<tt::TruthTable> simulate(const Netlist& net);

/// Simulation restricted to the live cone feeding the POs — the fast path
/// used inside the CGP fitness loop (dead gates do not affect POs).
std::vector<tt::TruthTable> simulate_live(const Netlist& net);

/// Flat exhaustive-simulation state of a base netlist for the dirty-cone
/// offspring evaluator. `values` holds the truth table of every port as
/// one contiguous word-major array: port p occupies the `words` words
/// starting at row(p), laid out exactly like tt::TruthTable words (bit i
/// = value under input assignment i; the unused high bits of a sub-word
/// table are zero). Dead gates are simulated too, so PO moves onto
/// currently-dead cones still read correct values. Rows are dense — a
/// one-word table is one word — because the Table 1 netlists are all one
/// word and their whole state then fits a few cache lines.
struct SimCache {
  unsigned num_pis = 0;
  std::uint32_t num_gates = 0;
  std::size_t words = 0;
  std::vector<std::uint64_t> values;

  const std::uint64_t* row(Port p) const { return values.data() + p * words; }
  std::uint64_t* row(Port p) { return values.data() + p * words; }

  // --- scratch of update_sim_cache (capacity reused) ---
  std::vector<std::uint8_t> dirty;
  std::vector<std::uint64_t> gate_out;
};

/// Fully simulates `net` into `cache` (capacity-reusing). Afterwards
/// cache.row(p) is the table of port p and the cache can serve
/// update_sim_cache / simulate_delta_batch calls for same-shaped netlists.
void build_sim_cache(const Netlist& net, SimCache& cache);

/// Re-simulates the dirty cone of `to` relative to `from` — whose port
/// values the cache currently holds — and commits in place: the cache then
/// holds `to`'s values. `from` and `to` must agree on PI and gate counts
/// (CGP mutation preserves both); throws std::invalid_argument otherwise.
void update_sim_cache(const Netlist& from, const Netlist& to,
                      SimCache& cache);

/// Reusable scratch for simulate_delta_batch, one entry per offspring of a
/// λ-block; allocations carry across generations. After a call, a child
/// the spec screen did not reject has `po` pointing at its PO tables
/// (cache.words words each), either into the base cache or into the
/// child's overlay — valid until the next call or until the cache
/// changes. A rejected child has `rejected` set and an empty `po`.
struct DeltaBatch {
  struct Child {
    std::vector<const std::uint64_t*> po;
    /// Some PO row differs from the spec: the child is wrong, and its
    /// pass stopped at the first such PO.
    bool rejected = false;
    // --- scratch internals ---
    std::vector<std::uint8_t> dirty;     // per port: overlay row is live
    std::vector<std::uint64_t> overlay;  // ports x words, read where dirty
    /// (ready, PO index) pairs in screening order, where ready is 0 for a
    /// PO on a PI or the constant port and g + 1 for one driven by gate g.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> po_order;
    std::size_t screened = 0;  // po_order entries screened so far
  };
  std::vector<Child> children;
};

/// λ-batched dirty-cone simulation, screened against the specification:
/// evaluates every child of one generation in a single gate-major pass
/// against a read-only base cache. For each gate, each child whose genes
/// changed there — or whose cone is already dirty — re-evaluates it into
/// its own overlay rows; a recomputed value equal to the base one is not
/// a change and stops the cone there. All other reads hit the shared base
/// rows, which are never written, so each gate's base rows stay cache-hot
/// across the whole block. One-word netlists are evaluated inline
/// (eval_gate_words, masked to the table width); wider ones run the SIMD
/// gate3 kernel straight on the rows.
///
/// Screening: `spec` holds one table per PO over cache.num_pis variables.
/// Each PO row is compared with its spec table as soon as the gate driving
/// it is final (POs on a PI or the constant port before the pass); the
/// first mismatch rejects the child, which is skipped from then on. A
/// child whose POs all passed leaves the pass too (later gates feed none
/// of them), and the pass stops once no child is left. A child left
/// unrejected therefore matches `spec` on every PO, and its PO tables are
/// bit-identical to simulate(child). A spec of the wrong PO count or
/// arity throws std::invalid_argument before any row is read. The cache
/// must hold `base`'s values; shape requirements are as in
/// update_sim_cache, checked per child.
void simulate_delta_batch(const Netlist& base,
                          const std::vector<const Netlist*>& children,
                          const SimCache& cache, DeltaBatch& batch,
                          std::span<const tt::TruthTable> spec);

/// Word-parallel pattern simulation for wide circuits. `pi` must have one
/// row per PI (pi.rows() == net.num_pis(), validated up front); the word
/// count is taken from the batch, so it is explicit even for netlists
/// without PIs. `po` is reshaped to num_pos() x pi.words() and `scratch`
/// holds the per-port values — both reuse capacity across calls, so
/// repeated simulations allocate nothing.
void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po,
                       SimBatch& scratch);

/// Convenience overload with an internal scratch buffer.
void simulate_patterns(const Netlist& net, const SimBatch& pi, SimBatch& po);

/// Evaluate on a single input assignment (bit i = PI i); returns PO bits.
std::vector<bool> evaluate(const Netlist& net, std::uint64_t assignment);

} // namespace rcgp::rqfp
