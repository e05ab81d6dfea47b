#include "aig/refactor.hpp"

namespace rcgp::aig {

PassStats refactor_pass(Aig& aig, const RefactorParams& params) {
  PassStats stats;
  GainManager gm(aig);
  CutEvaluator evaluator;
  std::vector<Signal> leaf_sigs;
  const std::uint32_t original_count = aig.num_nodes();

  for (std::uint32_t n = 0; n < original_count; ++n) {
    if (!aig.is_and(n) || aig.is_replaced(n) || gm.refs(n) == 0) {
      continue;
    }
    const Cut cut = reconvergent_cut(aig, n, params.max_leaves);
    if (cut.leaves.size() < 2 || cut.leaves.size() > params.max_leaves) {
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
      continue;
    }
    gm.unref_candidate(cand);
    gm.ref_mffc(n);
    if (aig.num_nodes() > first_new) {
      aig.pop_nodes_to(first_new);
    }
  }
  return stats;
}

} // namespace rcgp::aig
