#include "aig/cuts.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace rcgp::aig {

namespace {

constexpr std::uint32_t kPending = ~std::uint32_t{0}; // CutEvaluator slot_

/// True if the sorted leaf set `small` is a subset of `big`.
bool subset_of(const std::vector<std::uint32_t>& small,
               const std::vector<std::uint32_t>& big) {
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

/// Merge two sorted leaf sets; returns false if the union exceeds `limit`.
bool merge_leaves(const std::vector<std::uint32_t>& a,
                  const std::vector<std::uint32_t>& b, unsigned limit,
                  std::vector<std::uint32_t>& out) {
  out.clear();
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() || j < b.size()) {
    std::uint32_t next;
    if (j >= b.size() || (i < a.size() && a[i] <= b[j])) {
      next = a[i];
      if (j < b.size() && b[j] == next) {
        ++j;
      }
      ++i;
    } else {
      next = b[j];
      ++j;
    }
    if (out.size() == limit) {
      return false;
    }
    out.push_back(next);
  }
  return true;
}

void add_cut_filtered(std::vector<Cut>& cuts,
                      const std::vector<std::uint32_t>& leaves,
                      unsigned max_cuts) {
  // Drop if dominated by an existing cut; remove cuts it dominates. The
  // leaves are copied into a Cut only when it is kept.
  for (const auto& c : cuts) {
    if (subset_of(c.leaves, leaves)) {
      return;
    }
  }
  cuts.erase(std::remove_if(cuts.begin(), cuts.end(),
                            [&](const Cut& c) {
                              return subset_of(leaves, c.leaves);
                            }),
             cuts.end());
  if (cuts.size() < max_cuts) {
    cuts.push_back(Cut{leaves});
  }
}

} // namespace

bool Cut::dominates(const Cut& other) const {
  // `this` dominates `other` if this->leaves ⊆ other.leaves.
  return subset_of(leaves, other.leaves);
}

std::vector<std::vector<Cut>> enumerate_cuts(const Aig& aig,
                                             const CutParams& params) {
  std::vector<std::vector<Cut>> cuts(aig.num_nodes());
  cuts[0].push_back(Cut{{0}});
  for (std::uint32_t i = 0; i < aig.num_pis(); ++i) {
    cuts[aig.pi_at(i)].push_back(Cut{{aig.pi_at(i)}});
  }
  std::vector<std::uint32_t> merged;
  for (std::uint32_t n = 0; n < aig.num_nodes(); ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n)) {
      continue;
    }
    const std::uint32_t a = aig.fanin0(n).node();
    const std::uint32_t b = aig.fanin1(n).node();
    auto& mine = cuts[n];
    for (const auto& ca : cuts[a]) {
      for (const auto& cb : cuts[b]) {
        if (!merge_leaves(ca.leaves, cb.leaves, params.max_leaves, merged)) {
          continue;
        }
        add_cut_filtered(mine, merged, params.max_cuts_per_node);
      }
    }
    // Trivial cut last, always present.
    mine.push_back(Cut{{n}});
  }
  return cuts;
}

const std::uint64_t* CutEvaluator::evaluate(
    const Aig& aig, std::uint32_t root, std::span<const std::uint32_t> leaves,
    std::size_t max_ands) {
  const auto k = static_cast<unsigned>(leaves.size());
  if (k > tt::TruthTable::kMaxVars) {
    throw std::invalid_argument("cut_function: too many leaves");
  }
  const std::size_t words = tt::num_words_for(k);
  if (stamp_.size() < aig.num_nodes()) {
    stamp_.resize(aig.num_nodes(), 0);
    slot_.resize(aig.num_nodes());
  }
  if (++epoch_ == 0) {
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = 1;
  }
  std::uint32_t num_tables = 0;
  // Appends a table for `n` and returns its word offset in tables_ (the
  // vector may grow, so callers take pointers only after allocating).
  const auto new_table = [&](std::uint32_t n) {
    stamp_[n] = epoch_;
    slot_[n] = num_tables;
    const std::size_t at = std::size_t{num_tables++} * words;
    if (tables_.size() < at + words) {
      tables_.resize(at + words);
    }
    return at;
  };

  for (unsigned i = 0; i < k; ++i) {
    const std::size_t at = new_table(leaves[i]);
    std::uint64_t* t = tables_.data() + at;
    for (std::size_t w = 0; w < words; ++w) {
      t[w] = i < 6 ? tt::kProjectionMasks[i]
                   : (((w >> (i - 6)) & 1) != 0 ? ~std::uint64_t{0} : 0);
    }
  }
  if (stamp_[0] != epoch_) {
    const std::size_t at = new_table(0);
    std::uint64_t* t = tables_.data() + at;
    std::fill(t, t + words, 0);
  }

  // Post-order DFS. A node is pending from its first visit until its
  // fanins are done; in a DAG no fanin of a node can be pending when it is
  // first visited, so a pending node back on top is ready to evaluate.
  std::size_t num_ands = 0;
  stack_.clear();
  stack_.push_back(root);
  while (!stack_.empty()) {
    const std::uint32_t n = stack_.back();
    if (stamp_[n] == epoch_) {
      stack_.pop_back();
      if (slot_[n] != kPending) {
        continue;
      }
      const Signal sa = aig.fanin0(n);
      const Signal sb = aig.fanin1(n);
      const std::size_t at = new_table(n);
      const std::uint64_t* ta = tables_.data() + slot_[sa.node()] * words;
      const std::uint64_t* tb = tables_.data() + slot_[sb.node()] * words;
      const std::uint64_t ca = sa.complemented() ? ~std::uint64_t{0} : 0;
      const std::uint64_t cb = sb.complemented() ? ~std::uint64_t{0} : 0;
      std::uint64_t* t = tables_.data() + at;
      for (std::size_t w = 0; w < words; ++w) {
        t[w] = (ta[w] ^ ca) & (tb[w] ^ cb);
      }
      continue;
    }
    if (!aig.is_and(n) || ++num_ands > max_ands) {
      return nullptr; // escapes the cut, or a degenerate / stale cone
    }
    stamp_[n] = epoch_;
    slot_[n] = kPending;
    const std::uint32_t a = aig.fanin0(n).node();
    const std::uint32_t b = aig.fanin1(n).node();
    if (stamp_[a] != epoch_) {
      stack_.push_back(a);
    }
    if (stamp_[b] != epoch_) {
      stack_.push_back(b);
    }
  }
  std::uint64_t* result = tables_.data() + slot_[root] * words;
  if (k < 6) {
    result[0] &= (std::uint64_t{1} << (1u << k)) - 1;
  }
  return result;
}

tt::TruthTable cut_function(const Aig& aig, std::uint32_t root,
                            const Cut& cut) {
  thread_local CutEvaluator evaluator;
  const std::uint64_t* words = evaluator.evaluate(
      aig, root, cut.leaves, std::numeric_limits<std::size_t>::max());
  if (words == nullptr) {
    throw std::invalid_argument("cut_function: cone escapes the cut");
  }
  tt::TruthTable t(static_cast<unsigned>(cut.leaves.size()));
  std::copy(words, words + t.num_words(), t.data());
  return t;
}

Cut reconvergent_cut(const Aig& aig, std::uint32_t root, unsigned max_leaves) {
  // Start with the fanins of root, repeatedly expand the leaf whose
  // expansion adds the fewest new leaves (cost = #fanins not already
  // leaves, minus one for the leaf removed).
  std::vector<std::uint32_t> leaves;
  auto add_leaf = [&](std::uint32_t n) {
    if (std::find(leaves.begin(), leaves.end(), n) == leaves.end()) {
      leaves.push_back(n);
    }
  };
  if (!aig.is_and(root)) {
    return Cut{{root}};
  }
  add_leaf(aig.fanin0(root).node());
  add_leaf(aig.fanin1(root).node());

  for (;;) {
    int best_cost = 1000;
    int best_index = -1;
    for (std::size_t i = 0; i < leaves.size(); ++i) {
      const std::uint32_t n = leaves[i];
      if (!aig.is_and(n)) {
        continue;
      }
      const std::uint32_t a = aig.fanin0(n).node();
      const std::uint32_t b = aig.fanin1(n).node();
      int cost = -1; // removing n
      if (std::find(leaves.begin(), leaves.end(), a) == leaves.end()) {
        ++cost;
      }
      if (a != b &&
          std::find(leaves.begin(), leaves.end(), b) == leaves.end()) {
        ++cost;
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_index = static_cast<int>(i);
      }
    }
    if (best_index < 0) {
      break; // all leaves are PIs/constants
    }
    if (leaves.size() + static_cast<std::size_t>(std::max(0, best_cost)) >
        max_leaves) {
      break;
    }
    const std::uint32_t n = leaves[static_cast<std::size_t>(best_index)];
    leaves.erase(leaves.begin() + best_index);
    add_leaf(aig.fanin0(n).node());
    add_leaf(aig.fanin1(n).node());
  }
  std::sort(leaves.begin(), leaves.end());
  return Cut{std::move(leaves)};
}

} // namespace rcgp::aig
