#include "aig/rewrite.hpp"

#include <algorithm>

#include "tt/isop.hpp"

namespace rcgp::aig {

GainManager::GainManager(Aig& aig) : aig_(aig), refs_(aig.compute_refs()) {}

std::uint32_t& GainManager::ref_slot(std::uint32_t n) {
  if (n >= refs_.size()) {
    refs_.resize(n + 1, 0);
  }
  return refs_[n];
}

std::uint32_t GainManager::deref_rec(std::uint32_t n) {
  std::uint32_t freed = 1;
  for (const Signal f : {aig_.fanin0(n), aig_.fanin1(n)}) {
    auto& r = ref_slot(f.node());
    if (r == 0) {
      continue; // defensive: never underflow
    }
    if (--r == 0 && aig_.is_and(f.node())) {
      freed += deref_rec(f.node());
    }
  }
  return freed;
}

std::uint32_t GainManager::ref_rec(std::uint32_t n) {
  std::uint32_t added = 1;
  for (const Signal f : {aig_.fanin0(n), aig_.fanin1(n)}) {
    auto& r = ref_slot(f.node());
    if (r++ == 0 && aig_.is_and(f.node())) {
      added += ref_rec(f.node());
    }
  }
  return added;
}

std::uint32_t GainManager::deref_mffc(std::uint32_t root) {
  return deref_rec(root);
}

void GainManager::ref_mffc(std::uint32_t root) { ref_rec(root); }

std::uint32_t GainManager::ref_candidate(Signal s) {
  const std::uint32_t n = s.node();
  if (!aig_.is_and(n)) {
    ref_slot(n); // ensure slot exists
    return 0;
  }
  if (ref_slot(n) > 0) {
    return 0; // already live: adds no new nodes
  }
  return ref_rec(n);
}

void GainManager::unref_candidate(Signal s) {
  const std::uint32_t n = s.node();
  if (!aig_.is_and(n) || ref_slot(n) > 0) {
    return;
  }
  deref_rec(n);
}

void GainManager::commit(std::uint32_t root, Signal candidate) {
  auto& cand_refs = ref_slot(candidate.node());
  cand_refs += ref_slot(root);
  ref_slot(root) = 0;
  aig_.replace(root, candidate);
}

std::optional<tt::TruthTable> try_cut_function(const Aig& aig,
                                               std::uint32_t root,
                                               const Cut& cut) {
  thread_local CutEvaluator evaluator;
  const std::uint64_t* words =
      evaluator.evaluate(aig, root, cut.leaves, kMaxConeAnds);
  if (words == nullptr) {
    return std::nullopt;
  }
  tt::TruthTable t(static_cast<unsigned>(cut.leaves.size()));
  std::copy(words, words + t.num_words(), t.data());
  return t;
}

namespace {

/// Literal-count estimate of a factored form, used to choose polarity.
std::uint64_t factored_cost(std::span<const tt::Cube> cubes) {
  std::uint64_t lits = 0;
  for (const auto& c : cubes) {
    lits += c.num_literals();
  }
  return lits + cubes.size();
}

Signal build_cube(Aig& aig, const tt::Cube& cube,
                  std::span<const Signal> leaves) {
  Signal acc = aig.const1();
  for (unsigned v = 0; v < leaves.size(); ++v) {
    if (cube.mask & (1u << v)) {
      const Signal lit =
          (cube.polarity & (1u << v)) ? leaves[v] : !leaves[v];
      acc = aig.create_and(acc, lit);
    }
  }
  return acc;
}

/// Factors the cover cubes[begin, end). The quotient and remainder of each
/// algebraic division are appended to `cubes` and dropped again on return,
/// so the vector doubles as the recursion's stack of cube lists.
Signal build_cover(Aig& aig, std::vector<tt::Cube>& cubes, std::size_t begin,
                   std::size_t end, std::span<const Signal> leaves) {
  if (begin == end) {
    return aig.const0();
  }
  for (std::size_t i = begin; i < end; ++i) {
    if (cubes[i].mask == 0) {
      return aig.const1();
    }
  }
  if (end - begin == 1) {
    return build_cube(aig, cubes[begin], leaves);
  }
  // Find the most frequent literal for algebraic division.
  unsigned best_var = 0;
  bool best_pol = false;
  unsigned best_count = 0;
  for (unsigned v = 0; v < leaves.size(); ++v) {
    for (const bool pol : {false, true}) {
      unsigned count = 0;
      for (std::size_t i = begin; i < end; ++i) {
        if ((cubes[i].mask & (1u << v)) &&
            (((cubes[i].polarity >> v) & 1) != 0) == pol) {
          ++count;
        }
      }
      if (count > best_count) {
        best_count = count;
        best_var = v;
        best_pol = pol;
      }
    }
  }
  if (best_count <= 1) {
    // No common literal: plain OR of cube ANDs.
    Signal acc = aig.const0();
    for (std::size_t i = begin; i < end; ++i) {
      acc = aig.create_or(acc, build_cube(aig, cubes[i], leaves));
    }
    return acc;
  }
  const auto has_literal = [&](const tt::Cube& c) {
    return (c.mask & (1u << best_var)) &&
           (((c.polarity >> best_var) & 1) != 0) == best_pol;
  };
  const std::size_t quotient = cubes.size();
  for (std::size_t i = begin; i < end; ++i) {
    tt::Cube q = cubes[i];
    if (has_literal(q)) {
      q.mask &= ~(1u << best_var);
      q.polarity &= ~(1u << best_var);
      cubes.push_back(q);
    }
  }
  const std::size_t remainder = cubes.size();
  for (std::size_t i = begin; i < end; ++i) {
    const tt::Cube r = cubes[i];
    if (!has_literal(r)) {
      cubes.push_back(r);
    }
  }
  const std::size_t remainder_end = cubes.size();
  const Signal lit = best_pol ? leaves[best_var] : !leaves[best_var];
  const Signal q = build_cover(aig, cubes, quotient, remainder, leaves);
  const Signal r = build_cover(aig, cubes, remainder, remainder_end, leaves);
  cubes.resize(quotient);
  return aig.create_or(aig.create_and(lit, q), r);
}

} // namespace

Signal build_factored(Aig& aig, const tt::TruthTable& function,
                      std::span<const Signal> leaf_signals) {
  return build_factored(aig, function.data(), function.num_vars(),
                        leaf_signals);
}

Signal build_factored(Aig& aig, const std::uint64_t* function,
                      unsigned num_vars, std::span<const Signal> leaf_signals) {
  // Both covers live in one cube vector: the positive-polarity ISOP, then
  // the ISOP of the complement.
  thread_local std::vector<tt::Cube> cubes;
  thread_local std::vector<std::uint64_t> complement;
  const std::size_t words = tt::num_words_for(num_vars);
  complement.resize(words);
  for (std::size_t w = 0; w < words; ++w) {
    complement[w] = ~function[w];
  }
  cubes.clear();
  tt::isop(function, function, num_vars, cubes);
  const std::size_t num_pos = cubes.size();
  tt::isop(complement.data(), complement.data(), num_vars, cubes);
  const std::size_t num_all = cubes.size();
  const std::span<const tt::Cube> all(cubes);
  if (factored_cost(all.subspan(num_pos)) <
      factored_cost(all.first(num_pos))) {
    return !build_cover(aig, cubes, num_pos, num_all, leaf_signals);
  }
  return build_cover(aig, cubes, 0, num_pos, leaf_signals);
}

PassStats rewrite_pass(Aig& aig, const RewriteParams& params) {
  PassStats stats;
  CutParams cp;
  cp.max_leaves = params.max_leaves;
  cp.max_cuts_per_node = params.max_cuts_per_node;
  const auto cuts = enumerate_cuts(aig, cp);
  GainManager gm(aig);
  CutEvaluator evaluator;
  std::vector<Signal> leaf_sigs;
  const std::uint32_t original_count = aig.num_nodes();

  for (std::uint32_t n = 0; n < original_count; ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n) || gm.refs(n) == 0) {
      continue;
    }
    // Best candidate over all cuts of n.
    for (const auto& cut : cuts[n]) {
      if (cut.leaves.size() < 2) {
        continue;
      }
      bool stale = false;
      for (const auto leaf : cut.leaves) {
        if (leaf == n || aig.is_replaced(leaf)) {
          stale = true;
          break;
        }
      }
      if (stale) {
        continue;
      }
      const std::uint64_t* func =
          evaluator.evaluate(aig, n, cut.leaves, kMaxConeAnds);
      if (func == nullptr) {
        continue;
      }
      ++stats.attempts;

      const std::uint32_t saved = gm.deref_mffc(n);
      leaf_sigs.clear();
      for (const auto leaf : cut.leaves) {
        leaf_sigs.push_back(Signal(leaf, false));
      }
      const std::uint32_t first_new = aig.num_nodes();
      const auto k = static_cast<unsigned>(cut.leaves.size());
      const Signal cand = build_factored(aig, func, k, leaf_sigs);
      if (cand.node() == n) {
        // Factoring reproduced the same root: undo and move on.
        aig.pop_nodes_to(first_new);
        gm.ref_mffc(n);
        continue;
      }
      const std::uint32_t cost = gm.ref_candidate(cand);
      const auto gain =
          static_cast<std::int64_t>(saved) - static_cast<std::int64_t>(cost);
      const bool accept = gain > 0 || (gain == 0 && params.allow_zero_gain &&
                                       cand.node() < first_new);
      if (accept) {
        gm.commit(n, cand);
        stats.total_gain += gain;
        ++stats.commits;
        break; // node replaced; remaining cuts are stale
      }
      gm.unref_candidate(cand);
      gm.ref_mffc(n);
      if (aig.num_nodes() > first_new) {
        aig.pop_nodes_to(first_new);
      }
    }
  }
  return stats;
}

} // namespace rcgp::aig
