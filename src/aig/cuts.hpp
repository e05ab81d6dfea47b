#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "aig/aig.hpp"
#include "tt/truth_table.hpp"

namespace rcgp::aig {

/// A k-feasible cut: sorted leaf node ids. The cut's cone is the set of
/// nodes between the root and the leaves.
struct Cut {
  std::vector<std::uint32_t> leaves; // sorted, unique node ids

  bool operator==(const Cut&) const = default;
  /// True if `other`'s leaves are a subset of ours (we are dominated).
  bool dominates(const Cut& other) const;
};

struct CutParams {
  unsigned max_leaves = 4;
  unsigned max_cuts_per_node = 12; // priority cuts
};

/// Bottom-up k-cut enumeration over the resolved live graph. Result is
/// indexed by node id; PIs/constants get their trivial cut only. The
/// trivial cut {n} is always the last entry of each node's list.
std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig,
                                             const CutParams& params);

/// Evaluates cut functions on raw 64-bit words with reusable scratch: one
/// DFS over the cone both validates it and computes every node's table,
/// so a warm evaluator allocates nothing.
class CutEvaluator {
public:
  /// Table of `root`'s function over `leaves` (leaf i maps to variable i)
  /// in tt::TruthTable word layout: max(1, 2^(k-6)) words for k leaves,
  /// valid until the next call. Returns nullptr when the cone escapes the
  /// cut (reaches a PI that is not a leaf) or holds more than `max_ands`
  /// AND nodes. The constant node evaluates to 0 unless it is a leaf.
  /// Throws std::invalid_argument for more than TruthTable::kMaxVars
  /// leaves.
  const std::uint64_t* evaluate(const Aig& aig, std::uint32_t root,
                                std::span<const std::uint32_t> leaves,
                                std::size_t max_ands);

private:
  std::vector<std::uint32_t> stamp_; // == epoch_: node seen by this call
  std::vector<std::uint32_t> slot_;  // table index, or pending
  std::vector<std::uint64_t> tables_;
  std::vector<std::uint32_t> stack_;
  std::uint32_t epoch_ = 0;
};

/// Truth table of `root`'s function over the leaves of `cut` (leaf i maps
/// to variable i). Cut cone must be a legal cut of root; throws
/// std::invalid_argument when it escapes.
tt::TruthTable cut_function(const Aig& aig, std::uint32_t root,
                            const Cut& cut);

/// Reconvergence-driven cut: greedily expands from `root` keeping at most
/// `max_leaves` leaves; used by refactoring.
Cut reconvergent_cut(const Aig& aig, std::uint32_t root, unsigned max_leaves);

} // namespace rcgp::aig
