#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "aig/aig.hpp"
#include "aig/aig_simulate.hpp"
#include "aig/balance.hpp"
#include "aig/cuts.hpp"
#include "aig/refactor.hpp"
#include "aig/resyn.hpp"
#include "aig/rewrite.hpp"
#include "benchmarks/benchmarks.hpp"
#include "core/flow.hpp"
#include "mig/mig_from_aig.hpp"
#include "util/rng.hpp"

namespace rcgp::aig {
namespace {

/// Builds a pseudo-random AIG for property tests.
Aig random_aig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
               std::uint64_t seed) {
  util::Rng rng(seed);
  Aig net;
  std::vector<Signal> pool{net.const0()};
  for (unsigned i = 0; i < num_pis; ++i) {
    pool.push_back(net.create_pi());
  }
  for (unsigned i = 0; i < num_nodes; ++i) {
    const Signal a =
        pool[rng.below(pool.size())] ^ rng.chance(0.5);
    const Signal b =
        pool[rng.below(pool.size())] ^ rng.chance(0.5);
    pool.push_back(net.create_and(a, b));
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[rng.below(pool.size())] ^ rng.chance(0.5));
  }
  return net;
}

/// A pseudo-random AIG with depth: each fanin is, three times in four, one
/// of the 24 most recent signals (otherwise a PI), so cones reconverge and
/// grow large. The POs are the last `num_pos` signals.
Aig deep_random_aig(unsigned num_pis, unsigned num_nodes, unsigned num_pos,
                    std::uint64_t seed) {
  util::Rng rng(seed);
  Aig net;
  std::vector<Signal> pis;
  for (unsigned i = 0; i < num_pis; ++i) {
    pis.push_back(net.create_pi());
  }
  std::vector<Signal> pool = pis;
  const auto draw = [&] {
    const std::size_t window = std::min<std::size_t>(pool.size(), 24);
    const Signal s = rng.chance(0.25)
                         ? pis[rng.below(pis.size())]
                         : pool[pool.size() - 1 - rng.below(window)];
    return s ^ rng.chance(0.5);
  };
  for (unsigned i = 0; i < num_nodes; ++i) {
    const Signal a = draw();
    const Signal b = draw();
    if (a.node() != b.node()) { // never a constant or a repeated operand
      pool.push_back(net.create_and(a, b));
    }
  }
  for (unsigned i = 0; i < num_pos; ++i) {
    net.add_po(pool[pool.size() - 1 - i]);
  }
  return net;
}

TEST(Aig, TrivialSimplifications) {
  Aig net;
  const Signal a = net.create_pi();
  EXPECT_EQ(net.create_and(a, net.const0()), net.const0());
  EXPECT_EQ(net.create_and(net.const1(), a), a);
  EXPECT_EQ(net.create_and(a, a), a);
  EXPECT_EQ(net.create_and(a, !a), net.const0());
  EXPECT_EQ(net.num_nodes(), 2u); // const + PI only
}

TEST(Aig, StructuralHashing) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  const Signal y = net.create_and(b, a); // commuted
  EXPECT_EQ(x, y);
  const Signal z = net.create_and(!a, b);
  EXPECT_NE(x, z);
  EXPECT_EQ(net.count_live_ands(), 0u); // no POs yet
  net.add_po(x);
  net.add_po(z);
  EXPECT_EQ(net.count_live_ands(), 2u);
}

TEST(Aig, DerivedGatesSimulateCorrectly) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  net.add_po(net.create_xor(a, b));
  net.add_po(net.create_or(a, b));
  net.add_po(net.create_mux(a, b, c));
  net.add_po(net.create_maj(a, b, c));
  const auto tts = simulate(net);
  const auto ta = tt::TruthTable::projection(3, 0);
  const auto tb = tt::TruthTable::projection(3, 1);
  const auto tc = tt::TruthTable::projection(3, 2);
  EXPECT_EQ(tts[0], ta ^ tb);
  EXPECT_EQ(tts[1], ta | tb);
  EXPECT_EQ(tts[2], tt::TruthTable::ite(ta, tb, tc));
  EXPECT_EQ(tts[3], tt::TruthTable::majority(ta, tb, tc));
}

TEST(Aig, ReplaceRedirectsAndCleanupDropsDead) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  const Signal y = net.create_and(x, a); // equals a&b
  net.add_po(y);
  net.replace(y.node(), x);
  EXPECT_EQ(net.po_at(0), x);
  const Aig clean = net.cleanup();
  EXPECT_EQ(clean.count_live_ands(), 1u);
  const auto tts = simulate(clean);
  EXPECT_EQ(tts[0], tt::TruthTable::projection(2, 0) &
                        tt::TruthTable::projection(2, 1));
}

TEST(Aig, ReplaceWithComplementPropagates) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  net.add_po(!x);
  net.replace(x.node(), !a); // pretend optimization proved x == !a
  EXPECT_EQ(net.po_at(0), a);
}

TEST(Aig, CleanupPreservesNamesAndInterface) {
  Aig net;
  net.create_pi("alpha");
  const Signal b = net.create_pi("beta");
  net.add_po(b, "out");
  const Aig clean = net.cleanup();
  EXPECT_EQ(clean.num_pis(), 2u);
  EXPECT_EQ(clean.pi_name(0), "alpha");
  EXPECT_EQ(clean.po_name(0), "out");
}

TEST(Aig, LevelsAndDepth) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  EXPECT_EQ(net.depth(), 2u);
  const auto levels = net.compute_levels();
  EXPECT_EQ(levels[ab.node()], 1u);
  EXPECT_EQ(levels[abc.node()], 2u);
}

TEST(Aig, ComputeRefsCountsFanouts) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  net.add_po(x);
  net.add_po(x);
  const auto refs = net.compute_refs();
  EXPECT_EQ(refs[x.node()], 2u);
  EXPECT_EQ(refs[a.node()], 1u);
}

TEST(Aig, PopNodesToRollsBackStrash) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const std::uint32_t mark = net.num_nodes();
  const Signal x = net.create_and(a, b);
  net.pop_nodes_to(mark);
  EXPECT_EQ(net.num_nodes(), mark);
  const Signal y = net.create_and(a, b);
  EXPECT_EQ(y.node(), x.node()); // id reused after rollback
}

TEST(Aig, ReplacementsFollowNodeCreationAndRollback) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal x = net.create_and(a, b);
  EXPECT_FALSE(net.has_replacements());
  const std::uint32_t mark = net.num_nodes();
  const Signal y = net.create_and(a, !b);
  const Signal z = net.create_and(!a, b);
  net.replace(y.node(), !x);
  net.replace(y.node(), a); // re-replacing keeps one replacement
  net.replace(z.node(), y);
  EXPECT_TRUE(net.is_replaced(y.node()));
  EXPECT_EQ(net.resolve(!z), !a); // chains resolve through y
  net.pop_nodes_to(z.node());
  EXPECT_TRUE(net.has_replacements());
  net.pop_nodes_to(mark);
  EXPECT_FALSE(net.has_replacements());
  // Recreated ids start unreplaced.
  const Signal again = net.create_and(a, !b);
  EXPECT_EQ(again.node(), y.node());
  EXPECT_FALSE(net.is_replaced(again.node()));
  EXPECT_EQ(net.resolve(again), again);
}

TEST(AigSimulate, PatternsMatchExhaustive) {
  const Aig net = random_aig(6, 40, 4, 7);
  const auto tts = simulate(net);
  // Exhaustive 6-var table equals one 64-bit word; feed the identity
  // patterns and compare.
  std::vector<std::vector<std::uint64_t>> patterns(6);
  for (unsigned i = 0; i < 6; ++i) {
    patterns[i] = {tt::TruthTable::projection(6, i).word(0)};
  }
  const auto out = simulate_patterns(net, patterns);
  for (unsigned o = 0; o < 4; ++o) {
    EXPECT_EQ(out[o][0], tts[o].word(0));
  }
}

TEST(AigSimulate, RandomPatternHelpers) {
  util::Rng rng(3);
  const auto patterns = random_patterns(5, 4, rng);
  EXPECT_EQ(patterns.size(), 5u);
  EXPECT_EQ(patterns[0].size(), 4u);
  const Aig net = random_aig(5, 20, 2, 9);
  const auto out = simulate_patterns(net, patterns);
  EXPECT_EQ(out.size(), 2u);
}

// ---------- cuts ----------

TEST(Cuts, TrivialAndMergedCuts) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  const auto cuts = enumerate_cuts(net, {});
  // The root must have a cut {a,b,c} and the trivial cut {abc}.
  bool found_leaves = false;
  bool found_trivial = false;
  for (const auto& cut : cuts[abc.node()]) {
    if (cut.leaves == std::vector<std::uint32_t>{a.node(), b.node(),
                                                 c.node()}) {
      found_leaves = true;
    }
    if (cut.leaves == std::vector<std::uint32_t>{abc.node()}) {
      found_trivial = true;
    }
  }
  EXPECT_TRUE(found_leaves);
  EXPECT_TRUE(found_trivial);
}

TEST(Cuts, CutFunctionComputesConeSemantics) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal x = net.create_and(a, !b);
  const Signal y = net.create_and(x, c);
  net.add_po(y);
  Cut cut{{a.node(), b.node(), c.node()}};
  const auto f = cut_function(net, y.node(), cut);
  const auto expect = tt::TruthTable::projection(3, 0) &
                      ~tt::TruthTable::projection(3, 1) &
                      tt::TruthTable::projection(3, 2);
  EXPECT_EQ(f, expect);
}

TEST(Cuts, LeafCountRespected) {
  const Aig net = random_aig(8, 60, 3, 5);
  CutParams params;
  params.max_leaves = 4;
  const auto cuts = enumerate_cuts(net, params);
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    for (const auto& cut : cuts[n]) {
      EXPECT_LE(cut.leaves.size(), 4u);
      EXPECT_TRUE(std::is_sorted(cut.leaves.begin(), cut.leaves.end()));
    }
  }
}

TEST(Cuts, DominatedCutsFiltered) {
  Cut small{{1, 2}};
  Cut big{{1, 2, 3}};
  EXPECT_TRUE(small.dominates(big));
  EXPECT_FALSE(big.dominates(small));
}

TEST(Cuts, ReconvergentCutStaysBounded) {
  const Aig net = random_aig(6, 50, 2, 13);
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (!net.is_and(n)) {
      continue;
    }
    const Cut cut = reconvergent_cut(net, n, 6);
    EXPECT_LE(cut.leaves.size(), 6u);
    EXPECT_GE(cut.leaves.size(), 1u);
    // Cut function over its own cut must be computable (no escape).
    const auto f = try_cut_function(net, n, cut);
    EXPECT_TRUE(f.has_value());
  }
}

/// Value of node `n` under an assignment to the cut's leaves (bit i of
/// `assignment` is leaf i), one minterm at a time: a reference for
/// cut_function independent of its word-parallel evaluation.
bool eval_cone(const Aig& net, std::uint32_t n, const Cut& cut,
               std::uint64_t assignment) {
  const auto leaf = std::find(cut.leaves.begin(), cut.leaves.end(), n);
  if (leaf != cut.leaves.end()) {
    return ((assignment >> (leaf - cut.leaves.begin())) & 1) != 0;
  }
  if (n == 0) {
    return false;
  }
  const Signal a = net.fanin0(n);
  const Signal b = net.fanin1(n);
  return (eval_cone(net, a.node(), cut, assignment) != a.complemented()) &&
         (eval_cone(net, b.node(), cut, assignment) != b.complemented());
}

TEST(Cuts, WideCutFunctionMatchesPointwiseEvaluation) {
  // Reconvergence-driven cuts of up to 10 leaves on a 12-PI network: the
  // multi-word cone evaluation refactoring relies on.
  const Aig net = deep_random_aig(12, 90, 4, 31);
  unsigned wide = 0;
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (!net.is_and(n)) {
      continue;
    }
    const Cut cut = reconvergent_cut(net, n, 10);
    const auto f = try_cut_function(net, n, cut);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f, cut_function(net, n, cut));
    const auto k = static_cast<unsigned>(cut.leaves.size());
    wide += k > 6 ? 1 : 0;
    for (std::uint64_t x = 0; x < (std::uint64_t{1} << k); ++x) {
      ASSERT_EQ(f->bit(x), eval_cone(net, n, cut, x)) << "node " << n;
    }
  }
  EXPECT_GT(wide, 0u);
}

TEST(Cuts, CutFunctionRejectsEscapingAndOversizedCones) {
  const Aig net = deep_random_aig(12, 600, 1, 32);
  const std::uint32_t root = net.po_at(0).node();
  ASSERT_TRUE(net.is_and(root));
  ASSERT_FALSE(net.po_at(0).complemented());
  // Leaves that miss a PI of the cone: the cone escapes.
  Cut partial = reconvergent_cut(net, root, 10);
  const auto pi_leaf =
      std::find_if(partial.leaves.begin(), partial.leaves.end(),
                   [&](std::uint32_t n) { return net.is_pi(n); });
  ASSERT_NE(pi_leaf, partial.leaves.end());
  partial.leaves.erase(pi_leaf);
  EXPECT_FALSE(try_cut_function(net, root, partial).has_value());
  EXPECT_THROW(cut_function(net, root, partial), std::invalid_argument);
  // All PIs as leaves: a legal cut, but try_cut_function gives up past
  // kMaxConeAnds AND nodes while cut_function has no cap.
  Cut all;
  for (std::uint32_t i = 0; i < net.num_pis(); ++i) {
    all.leaves.push_back(net.pi_at(i));
  }
  std::vector<bool> in_cone(net.num_nodes(), false);
  std::size_t cone_ands = 0;
  std::vector<std::uint32_t> stack{root};
  while (!stack.empty()) {
    const std::uint32_t n = stack.back();
    stack.pop_back();
    if (in_cone[n] || !net.is_and(n)) {
      continue;
    }
    in_cone[n] = true;
    ++cone_ands;
    stack.push_back(net.fanin0(n).node());
    stack.push_back(net.fanin1(n).node());
  }
  ASSERT_GT(cone_ands, kMaxConeAnds);
  EXPECT_FALSE(try_cut_function(net, root, all).has_value());
  EXPECT_EQ(cut_function(net, root, all), simulate(net)[0]);
}

// ---------- optimization passes ----------

class PassEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PassEquivalence, RewritePreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam());
  const auto before = simulate(net);
  rewrite_pass(net);
  const auto after = simulate(net);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, RefactorPreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam() + 1000);
  const auto before = simulate(net);
  refactor_pass(net);
  const auto after = simulate(net);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, BalancePreservesFunction) {
  Aig net = random_aig(6, 80, 4, GetParam() + 2000);
  const auto before = simulate(net);
  const Aig balanced = balance(net);
  const auto after = simulate(balanced);
  EXPECT_EQ(before, after);
}

TEST_P(PassEquivalence, Resyn2PreservesFunctionAndNeverGrows) {
  Aig net = random_aig(7, 120, 5, GetParam() + 3000);
  const auto before = simulate(net);
  ResynStats stats;
  const Aig optimized = resyn2(net, &stats);
  EXPECT_EQ(before, simulate(optimized));
  EXPECT_LE(stats.ands_after, stats.ands_before);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PassEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

/// 64-bit FNV-1a over an AIG's structure: PI count, every node's kind and
/// raw fanin codes in creation order, then the resolved PO codes.
std::uint64_t structural_hash(const Aig& net) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h = (h ^ ((v >> (8 * byte)) & 0xff)) * 0x100000001b3ULL;
    }
  };
  mix(net.num_pis());
  mix(net.num_nodes());
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    const Aig::Node& node = net.node(n);
    mix(node.kind);
    mix(node.fanin0.code());
    mix(node.fanin1.code());
  }
  mix(net.num_pos());
  for (std::uint32_t i = 0; i < net.num_pos(); ++i) {
    mix(net.po_at(i).code());
  }
  return h;
}

TEST(Resyn2, KnownAnswer) {
  // Pins the AIG front end bit for bit: the structure of
  // core::aig_from_tables(spec) (ISOP factoring), of aig::resyn2 on it
  // (cut functions, rewriting, refactoring, balancing) and the node count
  // of mig::mig_from_aig on the result, for every Table 1 row and the
  // larger Table 2 circuits. Any speed-up must leave these unchanged.
  struct Pin {
    const char* name;
    std::uint64_t from_tables;
    std::uint64_t resyn2;
    std::uint32_t mig_nodes;
  };
  const Pin pins[] = {
      {"full_adder", 0x534d4bb302815c36ULL, 0xe46a5abf1b39ef04ULL, 7},
      {"4gt10", 0x942e8df43e3cdfabULL, 0x942e8df43e3cdfabULL, 8},
      {"alu", 0x3f02f60b54015db0ULL, 0x0caf204677901d0cULL, 24},
      {"c17", 0xccfe82d66f9b1b01ULL, 0x81cb749279988a63ULL, 12},
      {"decoder_2_4", 0x1117a15fccdb0e4cULL, 0x1117a15fccdb0e4cULL, 7},
      {"decoder_3_8", 0xd631bdd2ee6bc69fULL, 0xd631bdd2ee6bc69fULL, 16},
      {"graycode4", 0x9d39b7044f4ae64aULL, 0x80ab609498da770aULL, 14},
      {"ham3", 0x72802951193d9a34ULL, 0xd3b19be479622146ULL, 7},
      {"mux4", 0xf2a1389e1c775b76ULL, 0xb64c0b7974cd5b76ULL, 16},
      {"hwb8", 0x2f24114ebdc51f17ULL, 0xb47ccced8807e6f9ULL, 771},
      {"intdiv4", 0x9a3ee9b6555141fcULL, 0x10ad142a37fbc269ULL, 18},
      {"intdiv5", 0xba6df6e69b05dfb9ULL, 0x2c358358a67cbf26ULL, 29},
      {"intdiv6", 0x5806f23c716abbaeULL, 0xeb4b975bda5ed117ULL, 46},
      {"intdiv7", 0xf0dc6c976c275244ULL, 0x18404496e7048c77ULL, 75},
      {"intdiv8", 0x24fecc91326a6ef8ULL, 0xf84e3a35c57f47e7ULL, 116},
      {"intdiv9", 0x5b5f6a306b698cceULL, 0x52d83798a1e72be0ULL, 181},
      {"intdiv10", 0xbf99c3a9b757e35aULL, 0x009174b62b3d5078ULL, 266},
      {"mod5adder", 0xfd63d80ccf7b79b6ULL, 0xbe56199c0e727cc4ULL, 66},
  };
  for (const Pin& pin : pins) {
    const auto b = benchmarks::get(pin.name);
    const Aig initial = core::aig_from_tables(b.spec, b.po_names);
    const Aig optimized = resyn2(initial);
    const auto mig_nodes = mig::mig_from_aig(optimized).num_nodes();
    EXPECT_EQ(simulate(optimized), b.spec) << pin.name;
    EXPECT_EQ(structural_hash(initial), pin.from_tables)
        << pin.name << std::hex << " 0x" << structural_hash(initial);
    EXPECT_EQ(structural_hash(optimized), pin.resyn2)
        << pin.name << std::hex << " 0x" << structural_hash(optimized);
    EXPECT_EQ(mig_nodes, pin.mig_nodes) << pin.name;
  }
}

/// Wide networks (10-12 PIs, deep enough that reconvergence-driven cuts
/// reach 7-10 leaves) put refactoring on the multi-word cut functions and
/// ISOPs that the 6-7-PI seeds above never reach.
class WidePassEquivalence : public ::testing::TestWithParam<std::uint64_t> {
protected:
  Aig wide_aig() const {
    const auto pis = static_cast<unsigned>(10 + GetParam() % 3);
    return deep_random_aig(pis, 160, 6, GetParam() + 4000);
  }
};

TEST_P(WidePassEquivalence, HasCutsWiderThanOneWord) {
  const Aig net = wide_aig();
  std::size_t widest = 0;
  for (std::uint32_t n = 0; n < net.num_nodes(); ++n) {
    if (net.is_and(n)) {
      widest = std::max(widest, reconvergent_cut(net, n, 10).leaves.size());
    }
  }
  EXPECT_GT(widest, 6u);
}

TEST_P(WidePassEquivalence, RewriteAndRefactorPreserveFunction) {
  for (const bool zero_gain : {false, true}) {
    Aig rewritten = wide_aig();
    const auto before = simulate(rewritten);
    RewriteParams rw;
    rw.allow_zero_gain = zero_gain;
    rewrite_pass(rewritten, rw);
    EXPECT_EQ(before, simulate(rewritten)) << "zero_gain=" << zero_gain;

    Aig refactored = wide_aig();
    RefactorParams rf;
    rf.allow_zero_gain = zero_gain;
    const PassStats stats = refactor_pass(refactored, rf);
    EXPECT_GT(stats.attempts, 0u);
    EXPECT_EQ(before, simulate(refactored)) << "zero_gain=" << zero_gain;
    EXPECT_EQ(before, simulate(resyn2(refactored)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WidePassEquivalence,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(Balance, ReducesChainDepth) {
  Aig net;
  std::vector<Signal> pis;
  for (int i = 0; i < 8; ++i) {
    pis.push_back(net.create_pi());
  }
  Signal acc = pis[0];
  for (int i = 1; i < 8; ++i) {
    acc = net.create_and(acc, pis[i]); // depth-7 chain
  }
  net.add_po(acc);
  EXPECT_EQ(net.depth(), 7u);
  const Aig balanced = balance(net);
  EXPECT_EQ(balanced.depth(), 3u); // ceil(log2(8))
  EXPECT_EQ(simulate(net), simulate(balanced));
}

TEST(Rewrite, RemovesRedundantLogic) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  // (a&b) | (a&c) -> a & (b|c): 3 ANDs to 2.
  const Signal ab = net.create_and(a, b);
  const Signal ac = net.create_and(a, c);
  net.add_po(net.create_or(ab, ac));
  const std::uint32_t before = net.count_live_ands();
  RewriteParams params;
  const auto stats = rewrite_pass(net, params);
  const Aig clean = net.cleanup();
  EXPECT_LE(clean.count_live_ands(), before);
  EXPECT_GT(stats.attempts, 0u);
  const auto tts = simulate(clean);
  const auto expect = tt::TruthTable::projection(3, 0) &
                      (tt::TruthTable::projection(3, 1) |
                       tt::TruthTable::projection(3, 2));
  EXPECT_EQ(tts[0], expect);
}

TEST(BuildFactored, ReconstructsFunctions) {
  util::Rng rng(77);
  for (int round = 0; round < 20; ++round) {
    tt::TruthTable f(4);
    f.set_word(0, rng.next());
    Aig net;
    std::vector<Signal> pis;
    for (int i = 0; i < 4; ++i) {
      pis.push_back(net.create_pi());
    }
    const Signal s = build_factored(net, f, pis);
    net.add_po(s);
    EXPECT_EQ(simulate(net)[0], f) << round;
  }
}

TEST(GainManager, MeasuresMffc) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal abc = net.create_and(ab, c);
  net.add_po(abc);
  GainManager gm(net);
  // abc's MFFC contains both AND nodes (ab has no other fanout).
  EXPECT_EQ(gm.deref_mffc(abc.node()), 2u);
  gm.ref_mffc(abc.node());
  EXPECT_EQ(gm.refs(ab.node()), 1u);
}

TEST(GainManager, SharedNodesNotInMffc) {
  Aig net;
  const Signal a = net.create_pi();
  const Signal b = net.create_pi();
  const Signal c = net.create_pi();
  const Signal ab = net.create_and(a, b);
  const Signal x = net.create_and(ab, c);
  net.add_po(x);
  net.add_po(ab); // ab now shared
  GainManager gm(net);
  EXPECT_EQ(gm.deref_mffc(x.node()), 1u); // only x itself
  gm.ref_mffc(x.node());
}

} // namespace
} // namespace rcgp::aig
