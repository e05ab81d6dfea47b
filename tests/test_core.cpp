#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "aig/aig_simulate.hpp"
#include "benchmarks/benchmarks.hpp"
#include "cec/sim_cec.hpp"
#include "core/anneal.hpp"
#include "core/chromosome.hpp"
#include "core/evolve.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "core/optimizer.hpp"
#include "core/shrink.hpp"
#include "fuzz/generator.hpp"
#include "fuzz/targets.hpp"
#include "obs/metrics.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "rqfp/sim_batch.hpp"
#include "rqfp/simd.hpp"
#include "rqfp/simulate.hpp"
#include "rqfp/splitter.hpp"
#include "util/rng.hpp"

namespace rcgp::core {
namespace {

rqfp::Netlist and_netlist() {
  rqfp::Netlist net(2);
  const auto g = net.add_gate({1, 2, rqfp::kConstPort},
                              rqfp::InvConfig::from_rows(5, 6, 4));
  net.add_po(net.port_of(g, 2));
  return net;
}

/// Builds the initialization netlist of a named benchmark.
rqfp::Netlist init_netlist(const std::string& name) {
  const auto b = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  return synthesize(b.spec, opt).initial;
}

// The search loops are reached exclusively through the Optimizer facade;
// these helpers keep the per-algorithm tests below terse.

EvolveResult run_evolve(const rqfp::Netlist& init,
                        std::span<const tt::TruthTable> spec,
                        const EvolveParams& params) {
  OptimizerOptions oo;
  oo.evolve = params;
  return Optimizer(oo).run(init, spec).evolve;
}

EvolveResult run_multistart(const rqfp::Netlist& init,
                            std::span<const tt::TruthTable> spec,
                            const EvolveParams& params, unsigned restarts) {
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kMultistart;
  oo.evolve = params;
  oo.restarts = restarts;
  return Optimizer(oo).run(init, spec).evolve;
}

AnnealResult run_anneal(const rqfp::Netlist& init,
                        std::span<const tt::TruthTable> spec,
                        const AnnealParams& params) {
  OptimizerOptions oo;
  oo.algorithm = Algorithm::kAnneal;
  oo.anneal = params;
  return Optimizer(oo).run(init, spec).anneal;
}

// ---------- Fitness ----------

TEST(Fitness, LexicographicOrder) {
  Fitness bad;
  bad.success_rate = 0.9;
  Fitness good;
  good.success_rate = 1.0;
  good.n_r = 10;
  good.n_g = 5;
  good.n_b = 3;
  EXPECT_TRUE(good.better_or_equal(bad));
  EXPECT_FALSE(bad.better_or_equal(good));

  Fitness fewer_gates = good;
  fewer_gates.n_r = 9;
  fewer_gates.n_g = 99; // gates dominate garbage
  EXPECT_TRUE(fewer_gates.better_or_equal(good));
  EXPECT_FALSE(good.better_or_equal(fewer_gates));

  Fitness fewer_garbage = good;
  fewer_garbage.n_g = 4;
  fewer_garbage.n_b = 99; // garbage dominates buffers
  EXPECT_TRUE(fewer_garbage.better_or_equal(good));

  Fitness fewer_buffers = good;
  fewer_buffers.n_b = 2;
  EXPECT_TRUE(fewer_buffers.better_or_equal(good));
  EXPECT_TRUE(fewer_buffers.strictly_better(good));
  EXPECT_TRUE(good.better_or_equal(good)); // reflexive
  EXPECT_FALSE(good.strictly_better(good));
}

TEST(Fitness, JjObjectiveOrders) {
  Fitness a;
  a.success_rate = 1.0;
  a.objective = Objective::kJjCount;
  a.n_r = 5;
  a.n_b = 0; // 120 JJs
  Fitness b = a;
  b.n_r = 4;
  b.n_b = 7; // 124 JJs
  // Under the paper order b wins (fewer gates); under JJ order a wins.
  EXPECT_TRUE(a.better_or_equal(b));
  EXPECT_FALSE(b.better_or_equal(a));
  a.objective = Objective::kPaperLexicographic;
  b.objective = Objective::kPaperLexicographic;
  EXPECT_TRUE(b.better_or_equal(a));
  EXPECT_EQ(a.jjs(), 120u);
  EXPECT_EQ(b.jjs(), 124u);
}

TEST(Fitness, JjObjectiveFlowStaysCorrect) {
  const auto b = benchmarks::get("decoder_2_4");
  FlowOptions opt;
  opt.evolve.generations = 8000;
  opt.evolve.fitness.objective = Objective::kJjCount;
  opt.evolve.seed = 13;
  const auto r = synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
  EXPECT_LE(r.optimized_cost.jjs, r.initial_cost.jjs);
}

TEST(Fitness, EvaluateCorrectNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> spec{tt::TruthTable::projection(2, 0) &
                                   tt::TruthTable::projection(2, 1)};
  const Fitness f = evaluate(net, spec);
  EXPECT_TRUE(f.functionally_correct());
  EXPECT_EQ(f.n_r, 1u);
  EXPECT_EQ(f.n_g, 2u);
}

TEST(Fitness, EvaluateWrongNetlistSkipsCost) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> spec{tt::TruthTable::projection(2, 0) |
                                   tt::TruthTable::projection(2, 1)};
  const Fitness f = evaluate(net, spec);
  EXPECT_FALSE(f.functionally_correct());
  EXPECT_LT(f.success_rate, 1.0);
  EXPECT_EQ(f.n_r, 0u); // untouched
}

// ---------- Chromosome ----------

TEST(Chromosome, GeneCountAndMapping) {
  const auto net = and_netlist();
  EXPECT_EQ(num_genes(net), 5u); // 4 per gate + 1 PO
  const auto g0 = gene_at(net, 0);
  EXPECT_EQ(g0.kind, GeneRef::Kind::kGateInput);
  EXPECT_EQ(g0.slot, 0u);
  const auto g3 = gene_at(net, 3);
  EXPECT_EQ(g3.kind, GeneRef::Kind::kGateConfig);
  const auto g4 = gene_at(net, 4);
  EXPECT_EQ(g4.kind, GeneRef::Kind::kPrimaryOutput);
  EXPECT_EQ(g4.po, 0u);
  EXPECT_THROW(gene_at(net, 5), std::out_of_range);
}

TEST(Chromosome, GenotypeStringMatchesPaperNotation) {
  const auto net = and_netlist();
  const auto s = to_genotype_string(net);
  EXPECT_NE(s.find("(1, 2, 0, "), std::string::npos);
  EXPECT_NE(s.find("(5)"), std::string::npos); // PO bound to port 5
}

// ---------- Mutation ----------

class MutationInvariant : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MutationInvariant, PreservesSingleFanout) {
  auto net = init_netlist("decoder_2_4");
  ASSERT_EQ(net.validate(), "");
  util::Rng rng(GetParam());
  MutationParams params;
  params.mu = 1.0;
  for (int round = 0; round < 50; ++round) {
    mutate(net, rng, params);
    ASSERT_EQ(net.validate(), "") << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MutationInvariant,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Mutation, ChangesGenes) {
  auto net = init_netlist("graycode4");
  util::Rng rng(42);
  MutationParams params;
  params.mu = 1.0;
  const auto before = net;
  MutationStats total;
  for (int i = 0; i < 10; ++i) {
    const auto stats = mutate(net, rng, params);
    total.genes_changed += stats.genes_changed;
  }
  EXPECT_GT(total.genes_changed, 0u);
  EXPECT_FALSE(net == before);
}

TEST(Mutation, RespectsLowMutationRate) {
  auto net = init_netlist("decoder_2_4");
  util::Rng rng(7);
  MutationParams params;
  params.mu = 1.0 / num_genes(net); // at most one gene
  for (int i = 0; i < 20; ++i) {
    const auto stats = mutate(net, rng, params);
    EXPECT_LE(stats.genes_changed, 1u);
  }
}

TEST(Mutation, GateCountIsStable) {
  // Point mutation never adds or removes gates (only shrink does).
  auto net = init_netlist("ham3");
  const auto gates = net.num_gates();
  util::Rng rng(3);
  for (int i = 0; i < 30; ++i) {
    mutate(net, rng, {});
    EXPECT_EQ(net.num_gates(), gates);
  }
}

/// 64-bit FNV-1a of a genotype string: compact known-answer pins.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char ch : s) {
    h = (h ^ static_cast<unsigned char>(ch)) * 0x100000001b3ULL;
  }
  return h;
}

TEST(Mutation, KnownAnswer) {
  // Pins mutate()'s exact draw sequence and gene decoding: the genotype
  // (paper Fig. 3 notation, hashed) after one μ = 1 mutation under
  // Rng::stream(7, g, k), on c17 and on a random 7-PI netlist. Any
  // speed-up of mutate must leave these unchanged.
  struct Pin {
    std::uint64_t g;
    std::uint64_t k;
    std::uint64_t c17;
    std::uint64_t pi7;
  };
  const Pin pins[] = {
      {0, 0, 0x8ff13233be3b33bcULL, 0xaf4c06c56ff84aa9ULL},
      {0, 3, 0x03bd61d4f4d9af9eULL, 0x8c994a4aae75f5ebULL},
      {5, 1, 0x5ea62ae801ea2724ULL, 0xa338fb3a2c97ea3cULL},
      {1000, 2, 0x634225738a5ce27cULL, 0xb2e98bab056d4de8ULL},
  };
  const auto c17 = init_netlist("c17");
  util::Rng net_rng(2024);
  fuzz::NetlistShape shape;
  shape.min_pis = shape.max_pis = 7;
  shape.min_gates = 12;
  shape.max_gates = 12;
  const auto pi7 = fuzz::random_netlist(net_rng, shape);
  for (const Pin& pin : pins) {
    for (const auto* base : {&c17, &pi7}) {
      auto net = *base;
      util::Rng rng = util::Rng::stream(7, pin.g, pin.k);
      mutate(net, rng);
      ASSERT_EQ(net.validate(), "");
      const std::uint64_t want = base == &c17 ? pin.c17 : pin.pi7;
      EXPECT_EQ(fnv1a(to_genotype_string(net)), want)
          << "g=" << pin.g << " k=" << pin.k << " "
          << (base == &c17 ? "c17" : "7-PI") << ": " << std::hex << "0x"
          << fnv1a(to_genotype_string(net)) << std::dec << " "
          << to_genotype_string(net);
    }
  }
}

// ---------- Deterministic reconnection primitives (§3.2.2 semantics) ----

TEST(Reconnect, DirectAssignToUnconsumedPort) {
  // Gate 1 reads gate 0's output 2; outputs 0 and 1 of gate 0 are free.
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  const auto g1 = net.add_gate({net.port_of(g0, 2), 0, 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0));
  const auto outcome =
      reconnect_input(net, g1, 0, net.port_of(g0, 1));
  EXPECT_EQ(outcome, ReconnectOutcome::kDirect);
  EXPECT_EQ(net.gate(g1).in[0], net.port_of(g0, 1));
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, SwapWithExistingConsumer) {
  // Both PIs consumed by gate 0; reconnecting slot 0 to PI 2 must swap.
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  const auto outcome = reconnect_input(net, g0, 0, 2);
  EXPECT_EQ(outcome, ReconnectOutcome::kSwapped);
  EXPECT_EQ(net.gate(g0).in[0], 2u);
  EXPECT_EQ(net.gate(g0).in[1], 1u);
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, ConstTargetAlwaysDirect) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(reconnect_input(net, g0, 0, rqfp::kConstPort),
            ReconnectOutcome::kDirect);
  // PI 1 is now unconsumed; reconnecting back is a direct assign.
  EXPECT_EQ(reconnect_input(net, g0, 0, 1), ReconnectOutcome::kDirect);
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, NoChangeOnSameTarget) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(reconnect_input(net, g0, 0, 1), ReconnectOutcome::kNoChange);
}

TEST(Reconnect, InfeasibleSwapLeavesNetlistUntouched) {
  // Gate 0 consumes PI 1. Gate 1's output feeds the PO. Reconnecting the
  // PO to PI 1 would hand gate 0 the PO's old value — a port produced
  // after gate 0 — which is infeasible.
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({1, 0, 0}, rqfp::InvConfig::splitter());
  const auto g1 = net.add_gate({net.port_of(g0, 0), 0, 0},
                               rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g1, 0));
  const auto before = net;
  EXPECT_EQ(reconnect_input(net, g0, 0, 0), ReconnectOutcome::kDirect);
  net = before;
  const auto outcome = reconnect_po(net, 0, 1);
  EXPECT_EQ(outcome, ReconnectOutcome::kInfeasible);
  EXPECT_TRUE(net == before);
}

TEST(Reconnect, PoSwapWithAnotherPo) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_po(net.port_of(g0, 0));
  net.add_po(net.port_of(g0, 2));
  const auto outcome = reconnect_po(net, 0, net.po_at(1));
  EXPECT_EQ(outcome, ReconnectOutcome::kSwapped);
  EXPECT_EQ(net.po_at(0), net.port_of(g0, 2));
  EXPECT_EQ(net.po_at(1), net.port_of(g0, 0));
  EXPECT_EQ(net.validate(), "");
}

TEST(Reconnect, ForwardReferenceThrows) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({1, 0, 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 0));
  EXPECT_THROW(reconnect_input(net, g0, 0, net.port_of(g0, 1)),
               std::invalid_argument);
  EXPECT_THROW(reconnect_po(net, 0, net.first_free_port()),
               std::invalid_argument);
}

// ---------- Shrink ----------

TEST(Shrink, RemovesUselessGatesOnly) {
  rqfp::Netlist net(2);
  const auto g0 = net.add_gate({1, 2, 0}, rqfp::InvConfig::reversible());
  net.add_gate({0, 0, 0}, rqfp::InvConfig()); // useless
  net.add_po(net.port_of(g0, 2));
  EXPECT_EQ(count_useless_gates(net), 1u);
  const auto before = rqfp::simulate(net);
  const auto small = shrink(net);
  EXPECT_EQ(small.num_gates(), 1u);
  EXPECT_EQ(count_useless_gates(small), 0u);
  EXPECT_EQ(rqfp::simulate(small), before);
}

TEST(Shrink, CascadingDeadChains) {
  rqfp::Netlist net(1);
  const auto g0 = net.add_gate({0, 1, 0}, rqfp::InvConfig::splitter());
  const auto g1 = net.add_gate({0, net.port_of(g0, 0), 0},
                               rqfp::InvConfig::splitter());
  net.add_gate({0, net.port_of(g1, 0), 0}, rqfp::InvConfig::splitter());
  net.add_po(net.port_of(g0, 1));
  // g2 is dead; g1 only feeds g2 so it dies transitively; g0 remains.
  const auto small = shrink(net);
  EXPECT_EQ(small.num_gates(), 1u);
}

TEST(Shrink, PaperExampleChromosomeLength) {
  // Fig. 3(b)->(c): removing one useless 4-gene gate shortens the
  // chromosome by 4 (20 -> 16 for the decoder example).
  auto net = init_netlist("decoder_2_4");
  rqfp::Netlist with_dead = net;
  with_dead.add_gate({0, 0, 0}, rqfp::InvConfig());
  EXPECT_EQ(num_genes(with_dead), num_genes(net) + 4);
  EXPECT_EQ(num_genes(shrink(with_dead)), num_genes(net));
}

// ---------- Evolution ----------

TEST(Evolve, RejectsWrongInitialNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) ^
                                    tt::TruthTable::projection(2, 1)};
  EvolveParams params;
  params.generations = 10;
  EXPECT_THROW(run_evolve(net, wrong, params), std::invalid_argument);
}

TEST(Evolve, KeepsFunctionalCorrectness) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 2000;
  params.seed = 11;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_EQ(result.best.validate(), "");
  const auto sim = cec::sim_check(result.best, b.spec);
  EXPECT_TRUE(sim.all_match);
  EXPECT_TRUE(result.best_fitness.functionally_correct());
}

TEST(Evolve, NeverWorseThanInitialization) {
  for (const char* name : {"decoder_2_4", "full_adder", "4gt10"}) {
    const auto b = benchmarks::get(name);
    const auto init = init_netlist(name);
    const Fitness init_fit = evaluate(init, b.spec);
    EvolveParams params;
    params.generations = 1500;
    params.seed = 5;
    const auto result = run_evolve(init, b.spec, params);
    EXPECT_TRUE(result.best_fitness.better_or_equal(init_fit)) << name;
    EXPECT_LE(result.best_fitness.n_r, init_fit.n_r) << name;
  }
}

TEST(Evolve, ImprovesDecoderLikeThePaper) {
  // The paper's headline: CGP sharply reduces gates and garbage vs the
  // initialization baseline. With a modest budget the decoder must drop
  // below its 8-gate/10-garbage initialization.
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 30000;
  params.seed = 5;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.best_fitness.n_r, 8u);
  EXPECT_LT(result.best_fitness.n_g, 10u);
}

TEST(Evolve, StagnationStopsEarly) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 1000000;
  params.stagnation_limit = 200;
  params.seed = 3;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.generations_run, params.generations);
  EXPECT_EQ(result.stop_reason, robust::StopReason::kStagnation);
}

TEST(Evolve, StagnationCounterResetsOnImprovement) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 50000;
  params.stagnation_limit = 300;
  params.seed = 21;
  std::vector<std::uint64_t> improvement_gens;
  params.on_improvement = [&](std::uint64_t gen, const Fitness&) {
    improvement_gens.push_back(gen);
  };
  const auto r = run_evolve(init, b.spec, params);
  ASSERT_EQ(r.stop_reason, robust::StopReason::kStagnation);
  ASSERT_FALSE(improvement_gens.empty());
  // The counter reset on every improvement, so the run survived past the
  // naive limit and stopped exactly `stagnation_limit` generations after
  // the last improvement (that generation itself included in the count).
  EXPECT_GT(r.generations_run, params.stagnation_limit);
  EXPECT_EQ(r.generations_run,
            improvement_gens.back() + params.stagnation_limit + 1);
  EXPECT_EQ(static_cast<std::uint64_t>(improvement_gens.size()),
            r.improvements);
}

TEST(Evolve, TimeLimitStops) {
  const auto b = benchmarks::get("graycode4");
  const auto init = init_netlist("graycode4");
  EvolveParams params;
  params.generations = 1000000000;
  params.time_limit_seconds = 0.2;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_LT(result.seconds, 5.0);
  EXPECT_LT(result.generations_run, params.generations);
  EXPECT_EQ(result.stop_reason, robust::StopReason::kTimeLimit);
}

TEST(Evolve, SatVerificationPathAccepts) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 3000;
  params.sat_verify_improvements = true;
  params.seed = 9;
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_GT(result.sat_confirmations, 0u);
  EXPECT_TRUE(cec::sim_check(result.best, b.spec).all_match);
}

TEST(Evolve, ImprovementCallbackFires) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 5000;
  params.seed = 21;
  int calls = 0;
  params.on_improvement = [&](std::uint64_t, const Fitness&) { ++calls; };
  const auto result = run_evolve(init, b.spec, params);
  EXPECT_EQ(static_cast<std::uint64_t>(calls), result.improvements);
}

/// Splits a JSONL buffer into its non-empty lines.
std::vector<std::string> jsonl_lines(const std::string& buffer) {
  std::vector<std::string> lines;
  std::istringstream in(buffer);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) {
      lines.push_back(line);
    }
  }
  return lines;
}

Fitness fitness_of_event(const std::string& line) {
  Fitness f;
  f.success_rate = *obs::json::number_field(line, "success_rate");
  f.n_r = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_r"));
  f.n_g = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_g"));
  f.n_b = static_cast<std::uint32_t>(*obs::json::number_field(line, "n_b"));
  return f;
}

TEST(Evolve, TraceEventsMatchResultCounters) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  auto sink = obs::TraceSink::memory();
  EvolveParams params;
  params.generations = 5000;
  params.seed = 21;
  params.trace = sink.get();
  params.trace_heartbeat = 1000;
  const auto result = run_evolve(init, b.spec, params);

  const auto lines = jsonl_lines(sink->buffer());
  ASSERT_FALSE(lines.empty());
  std::vector<std::string> improvements;
  std::uint64_t heartbeats = 0;
  for (const auto& line : lines) {
    ASSERT_TRUE(obs::json::validate(line)) << line;
    const auto type = obs::json::string_field(line, "event");
    ASSERT_TRUE(type.has_value()) << line;
    if (*type == "improvement") {
      improvements.push_back(line);
    } else if (*type == "heartbeat") {
      ++heartbeats;
    }
  }
  EXPECT_EQ(obs::json::string_field(lines.front(), "event"), "run_start");
  EXPECT_EQ(obs::json::string_field(lines.back(), "event"), "run_end");
  EXPECT_EQ(improvements.size(), result.improvements);
  EXPECT_EQ(heartbeats, result.generations_run / params.trace_heartbeat);

  // Improvement events are strict improvements: monotone in the
  // lexicographic fitness order, with the last matching the final result.
  for (std::size_t i = 1; i < improvements.size(); ++i) {
    EXPECT_TRUE(fitness_of_event(improvements[i])
                    .strictly_better(fitness_of_event(improvements[i - 1])))
        << improvements[i];
  }
  ASSERT_FALSE(improvements.empty());
  const Fitness last = fitness_of_event(improvements.back());
  EXPECT_EQ(last.n_r, result.best_fitness.n_r);
  EXPECT_EQ(last.n_g, result.best_fitness.n_g);
  EXPECT_EQ(last.n_b, result.best_fitness.n_b);

  // run_end restates the result counters.
  const std::string& end = lines.back();
  EXPECT_EQ(*obs::json::number_field(end, "generations_run"),
            static_cast<double>(result.generations_run));
  EXPECT_EQ(*obs::json::number_field(end, "evaluations"),
            static_cast<double>(result.evaluations));
  EXPECT_EQ(*obs::json::number_field(end, "improvements"),
            static_cast<double>(result.improvements));
}

TEST(Evolve, MutationMixAccountsForEveryOffspring) {
  const auto b = benchmarks::get("full_adder");
  const auto init = init_netlist("full_adder");
  EvolveParams params;
  params.generations = 2000;
  params.seed = 13;
  const auto result = run_evolve(init, b.spec, params);
  // One mutate() call per offspring per generation.
  EXPECT_EQ(result.mutations_attempted.mutations,
            result.generations_run * params.lambda);
  EXPECT_EQ(result.evaluations,
            result.generations_run * params.lambda + 1); // +1 for the parent
  // Accepted offspring are a subset of attempted ones, field by field.
  EXPECT_LE(result.mutations_accepted.mutations,
            result.mutations_attempted.mutations);
  EXPECT_LE(result.mutations_accepted.genes_changed,
            result.mutations_attempted.genes_changed);
  EXPECT_LE(result.mutations_accepted.swaps,
            result.mutations_attempted.swaps);
  EXPECT_LE(result.mutations_accepted.direct_assigns,
            result.mutations_attempted.direct_assigns);
  EXPECT_LE(result.mutations_accepted.config_flips,
            result.mutations_attempted.config_flips);
  EXPECT_LE(result.mutations_accepted.po_moves,
            result.mutations_attempted.po_moves);
  // Acceptances happen (the decoder always improves at this budget), and
  // each acceptance is one offspring.
  EXPECT_GE(result.mutations_accepted.mutations, result.improvements);
}

TEST(EvolveMultistart, TraceEmitsOneRestartPerRun) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  auto sink = obs::TraceSink::memory();
  EvolveParams params;
  params.generations = 300;
  params.seed = 2;
  params.trace = sink.get();
  const auto result = run_multistart(init, b.spec, params, 3);
  std::uint64_t restarts = 0;
  for (const auto& line : jsonl_lines(sink->buffer())) {
    ASSERT_TRUE(obs::json::validate(line)) << line;
    if (obs::json::string_field(line, "event") == "restart") {
      ++restarts;
    }
  }
  EXPECT_EQ(restarts, 3u);
  EXPECT_TRUE(result.best_fitness.functionally_correct());
}

TEST(EvolveMultistart, ReturnsValidBestOfRuns) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  EvolveParams params;
  params.generations = 8000;
  params.seed = 31;
  const auto single = run_evolve(init, b.spec, params);
  const auto multi = run_multistart(init, b.spec, params, 4);
  EXPECT_TRUE(cec::sim_check(multi.best, b.spec).all_match);
  EXPECT_EQ(multi.best.validate(), "");
  // Same total budget, bookkeeping accumulated over runs.
  EXPECT_EQ(multi.generations_run, single.generations_run / 4 * 4);
  EXPECT_TRUE(multi.best_fitness.functionally_correct());
}

TEST(EvolveMultistart, ZeroRestartsIsRejected) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 500;
  // restarts == 0 used to be silently clamped to 1, hiding a caller bug;
  // it is now a hard usage error.
  EXPECT_THROW(run_multistart(init, b.spec, params, 0),
               std::invalid_argument);
}

TEST(EvolveMultistart, DistributesRemainderGenerations) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  EvolveParams params;
  params.generations = 103; // 103 = 4*25 + 3: remainder must not be lost
  params.seed = 7;
  const auto r = run_multistart(init, b.spec, params, 4);
  EXPECT_EQ(r.generations_run, 103u);
  EXPECT_TRUE(r.best_fitness.functionally_correct());
  EXPECT_EQ(r.stop_reason, robust::StopReason::kCompleted);
}

TEST(EvolveMultistart, StopTokenCutsRestartScheduleShort) {
  const auto b = benchmarks::get("4gt10");
  const auto init = init_netlist("4gt10");
  robust::StopToken token;
  token.request_stop();
  EvolveParams params;
  params.generations = 4000;
  params.budget.stop = &token;
  const auto r = run_multistart(init, b.spec, params, 4);
  EXPECT_EQ(r.stop_reason, robust::StopReason::kStopRequested);
  EXPECT_EQ(r.generations_run, 0u);
  // Even a fully pre-empted schedule hands back a usable netlist.
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

// ---------- Simulated annealing (ablation optimizer) ----------

TEST(Anneal, EnergyOrdersStatesLikeTheFitness) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> right{tt::TruthTable::projection(2, 0) &
                                    tt::TruthTable::projection(2, 1)};
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) |
                                    tt::TruthTable::projection(2, 1)};
  EXPECT_LT(anneal_energy(net, right), anneal_energy(net, wrong));
}

TEST(Anneal, ImprovesAndStaysCorrect) {
  const auto b = benchmarks::get("decoder_2_4");
  const auto init = init_netlist("decoder_2_4");
  AnnealParams params;
  params.steps = 20000;
  params.seed = 5;
  params.mutation.mu = 0.2;
  const auto r = run_anneal(init, b.spec, params);
  EXPECT_TRUE(r.best_fitness.functionally_correct());
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
  EXPECT_EQ(r.best.validate(), "");
  const Fitness init_fit = evaluate(init, b.spec);
  EXPECT_TRUE(r.best_fitness.better_or_equal(init_fit));
  EXPECT_GT(r.accepted, 0u);
}

TEST(Anneal, AcceptsUphillMovesAtHighTemperature) {
  const auto b = benchmarks::get("graycode4");
  const auto init = init_netlist("graycode4");
  AnnealParams params;
  params.steps = 3000;
  params.initial_temperature = 1e6; // essentially a random walk
  params.final_temperature = 1e5;
  params.seed = 2;
  const auto r = run_anneal(init, b.spec, params);
  EXPECT_GT(r.uphill_accepted, 0u);
  // Best-seen tracking still guarantees a correct result.
  EXPECT_TRUE(cec::sim_check(r.best, b.spec).all_match);
}

TEST(Anneal, RejectsWrongInitialNetlist) {
  const auto net = and_netlist();
  std::vector<tt::TruthTable> wrong{tt::TruthTable::projection(2, 0) ^
                                    tt::TruthTable::projection(2, 1)};
  EXPECT_THROW(run_anneal(net, wrong, {}), std::invalid_argument);
}

// ---------- Flow ----------

TEST(Flow, AigFromTablesMatchesSpec) {
  const auto b = benchmarks::get("c17");
  const auto net = aig_from_tables(b.spec, b.po_names);
  const auto tts = aig::simulate(net);
  EXPECT_EQ(tts, b.spec);
  EXPECT_EQ(net.po_name(0), "y0");
}

TEST(Flow, InitializationIsLegalAndCorrect) {
  for (const char* name : {"full_adder", "graycode4", "mux4"}) {
    const auto b = benchmarks::get(name);
    FlowOptions opt;
    opt.run_cgp = false;
    const auto r = synthesize(b.spec, opt);
    EXPECT_EQ(r.initial.validate(), "") << name;
    EXPECT_TRUE(cec::sim_check(r.initial, b.spec).all_match) << name;
    EXPECT_EQ(r.initial_cost.jjs,
              24 * r.initial_cost.n_r + 4 * r.initial_cost.n_b)
        << name;
  }
}

TEST(Flow, CgpPhaseImprovesOrMatchesInit) {
  const auto b = benchmarks::get("ham3");
  FlowOptions opt;
  opt.evolve.generations = 5000;
  opt.evolve.seed = 17;
  const auto r = synthesize(b.spec, opt);
  EXPECT_LE(r.optimized_cost.n_r, r.initial_cost.n_r);
  EXPECT_TRUE(cec::sim_check(r.optimized, b.spec).all_match);
}

TEST(Flow, FraigPhasePreservesCorrectness) {
  const auto b = benchmarks::get("graycode4");
  FlowOptions opt;
  opt.run_fraig = true;
  opt.run_cgp = false;
  const auto r = synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.initial, b.spec).all_match);
  EXPECT_EQ(r.initial.validate(), "");
}

TEST(Flow, OptionalPhasesCanBeDisabled) {
  const auto b = benchmarks::get("4gt10");
  FlowOptions opt;
  opt.run_aig_optimization = false;
  opt.run_mig_optimization = false;
  opt.run_cgp = false;
  const auto r = synthesize(b.spec, opt);
  EXPECT_TRUE(cec::sim_check(r.initial, b.spec).all_match);
}

TEST(Flow, PhaseBreakdownPartitionsWallClock) {
  const auto b = benchmarks::get("c17");
  FlowOptions opt;
  opt.evolve.generations = 2000;
  opt.evolve.seed = 7;
  const auto r = synthesize(b.spec, opt);
  ASSERT_FALSE(r.phases.empty());
  // The CGP phase exists and dominates this run; the nested splitter timer
  // shows up as a depth-1 refinement of rqfp-map.
  EXPECT_GT(r.phase_seconds("cgp"), 0.0);
  bool saw_nested_splitter = false;
  double top_sum = 0.0;
  for (const auto& rec : r.phases) {
    EXPECT_GE(rec.seconds, 0.0);
    if (rec.depth == 0) {
      top_sum += rec.seconds;
    }
    if (rec.path == "rqfp-map/splitter") {
      EXPECT_EQ(rec.depth, 1);
      saw_nested_splitter = true;
    }
  }
  EXPECT_TRUE(saw_nested_splitter);
  // Depth-0 phases partition the flow: their sum accounts for (nearly all
  // of) seconds_total and never exceeds it by more than noise.
  EXPECT_GT(top_sum, 0.5 * r.seconds_total);
  EXPECT_LT(top_sum, 1.1 * r.seconds_total);
  EXPECT_EQ(r.phase_seconds("no-such-phase"), 0.0);
}

// SimBatch invariants (docs/SIMD.md): rows are vector-aligned, strides are
// padded to the widest kernel block, padding words stay zero through every
// mutation path, and externally produced buffers are validated with
// contextual error messages before the kernels ever touch them.

TEST(SimBatch, RowsAreVectorAlignedAndStrideIsPadded) {
  rqfp::SimBatch b(3, 5);
  EXPECT_EQ(b.rows(), 3u);
  EXPECT_EQ(b.words(), 5u);
  EXPECT_EQ(b.stride(), rqfp::simd::kMaxBlockWords);
  for (std::size_t r = 0; r < b.rows(); ++r) {
    const auto addr = reinterpret_cast<std::uintptr_t>(b.row(r));
    EXPECT_EQ(addr % rqfp::simd::kAlignment, 0u) << "row " << r;
  }
  // Odd word counts round up to the next full block; exact multiples and
  // the empty width are left alone.
  b.resize(2, 9);
  EXPECT_EQ(b.stride(), 2 * rqfp::simd::kMaxBlockWords);
  b.resize(1, 2 * rqfp::simd::kMaxBlockWords);
  EXPECT_EQ(b.stride(), 2 * rqfp::simd::kMaxBlockWords);
  b.resize(4, 0);
  EXPECT_EQ(b.stride(), 0u);
  EXPECT_EQ(rqfp::SimBatch::padded_words(1), rqfp::simd::kMaxBlockWords);
}

TEST(SimBatch, PaddedTailStaysZeroThroughRowWrites) {
  rqfp::SimBatch b(2, 5);
  b.fill_row(0, ~std::uint64_t{0});
  const std::vector<std::uint64_t> src(5, 0xDEADBEEFDEADBEEFull);
  b.assign_row(1, src.data());
  for (std::size_t r = 0; r < b.rows(); ++r) {
    for (std::size_t w = b.words(); w < b.stride(); ++w) {
      EXPECT_EQ(b.row(r)[w], 0u) << "row " << r << " pad word " << w;
    }
  }
  for (std::size_t w = 0; w < b.words(); ++w) {
    EXPECT_EQ(b.at(0, w), ~std::uint64_t{0});
    EXPECT_EQ(b.at(1, w), 0xDEADBEEFDEADBEEFull);
  }
}

TEST(SimBatch, ResizeReusesCapacityAndZeroFills) {
  rqfp::SimBatch b(4, 7);
  for (std::size_t r = 0; r < b.rows(); ++r) {
    b.fill_row(r, ~std::uint64_t{0});
  }
  const std::uint64_t* storage = b.row(0);
  b.resize(2, 3); // shrinking must reuse the allocation...
  EXPECT_EQ(b.row(0), storage);
  for (std::size_t r = 0; r < b.rows(); ++r) { // ...and re-zero everything
    for (std::size_t w = 0; w < b.stride(); ++w) {
      EXPECT_EQ(b.row(r)[w], 0u) << "row " << r << " word " << w;
    }
  }
}

TEST(SimBatch, ResizeOverflowThrowsLengthError) {
  rqfp::SimBatch b;
  EXPECT_THROW(
      b.resize(std::numeric_limits<std::size_t>::max() / 2,
               rqfp::simd::kMaxBlockWords),
      std::length_error);
  // The failed resize must leave the batch untouched.
  EXPECT_EQ(b.rows(), 0u);
  EXPECT_EQ(b.words(), 0u);
}

TEST(SimBatch, ExternalBufferValidationIsContextual) {
  // Zero words: nothing will be read, so even null passes.
  rqfp::SimBatch::check_external(nullptr, 0, "zero-width");
  try {
    rqfp::SimBatch::check_external(nullptr, 4, "null-caller");
    FAIL() << "null external buffer accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("null-caller"), std::string::npos) << msg;
    EXPECT_NE(msg.find("null"), std::string::npos) << msg;
  }
  alignas(8) unsigned char raw[32] = {};
  const auto* skewed = reinterpret_cast<const std::uint64_t*>(raw + 1);
  try {
    rqfp::SimBatch::check_external(skewed, 2, "skew-caller");
    FAIL() << "misaligned external buffer accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("skew-caller"), std::string::npos) << msg;
    EXPECT_NE(msg.find("aligned"), std::string::npos) << msg;
  }
  rqfp::SimBatch b(1, 2);
  EXPECT_THROW(b.assign_row(0, nullptr), std::invalid_argument);
}

TEST(SimBatch, EqualityComparesLogicalContentOnly) {
  rqfp::SimBatch a(2, 5);
  rqfp::SimBatch b(2, 5);
  a.fill_row(0, 3);
  b.fill_row(0, 3);
  // Deliberately corrupt a padding word: logical equality must not see it.
  a.row(0)[a.words()] = 0x123;
  EXPECT_TRUE(a == b);
  b.at(1, 4) = 1;
  EXPECT_FALSE(a == b);
  rqfp::SimBatch narrower(2, 4);
  EXPECT_FALSE(a == narrower);
}

// ---------- λ-batched offspring evaluation (evaluate_delta_batch) ----------

struct TierGuard {
  rqfp::simd::Tier saved = rqfp::simd::active_tier();
  ~TierGuard() { rqfp::simd::force_tier(saved); }
};

/// Random netlist over exactly `pis` PIs.
rqfp::Netlist random_netlist_with(unsigned pis, std::uint64_t seed) {
  util::Rng rng(seed);
  fuzz::NetlistShape shape;
  shape.min_pis = shape.max_pis = pis;
  shape.min_pos = 2;
  shape.min_gates = 8;
  shape.max_gates = 16;
  return fuzz::random_netlist(rng, shape);
}

/// Scores `children` of `base` against `spec` through evaluate_delta_batch
/// under every SIMD tier, as one λ-block and child by child, and checks
/// the offspring evaluator's contract (fuzz::delta_contract_violation)
/// against evaluate() for each. Returns, per child, whether evaluate()
/// finds it correct.
std::vector<bool> check_delta_contract(
    const rqfp::Netlist& base, const std::vector<rqfp::Netlist>& children,
    std::span<const tt::TruthTable> spec, const std::string& what) {
  const FitnessOptions fo;
  std::vector<const rqfp::Netlist*> ptrs;
  std::vector<Fitness> want;
  std::vector<bool> correct;
  for (const auto& child : children) {
    ptrs.push_back(&child);
    want.push_back(evaluate(child, spec, fo));
    correct.push_back(want.back().functionally_correct());
  }
  TierGuard guard;
  for (const rqfp::simd::Tier tier : rqfp::simd::available_tiers()) {
    rqfp::simd::force_tier(tier);
    rqfp::SimCache cache;
    rqfp::build_sim_cache(base, cache);
    rqfp::CostCache cost;
    rqfp::DeltaBatch batch;
    std::vector<Fitness> got(children.size());
    evaluate_delta_batch(base, cache, cost, ptrs, spec, fo, batch, got);
    const std::string at =
        what + ", " + std::string(rqfp::simd::to_string(tier)) + ", child ";
    for (std::size_t k = 0; k < children.size(); ++k) {
      EXPECT_EQ(fuzz::delta_contract_violation(want[k], got[k],
                                               batch.children[k],
                                               children[k]),
                "")
          << at << k << " (batch of λ)";
    }
    rqfp::DeltaBatch single;
    std::vector<Fitness> one(1);
    for (std::size_t k = 0; k < children.size(); ++k) {
      evaluate_delta_batch(base, cache, cost, {ptrs[k]}, spec, fo, single,
                           one);
      EXPECT_EQ(fuzz::delta_contract_violation(want[k], one[0],
                                               single.children[0],
                                               children[k]),
                "")
          << at << k << " (batch of 1)";
    }
  }
  return correct;
}

/// `count` children of `base`, mutated at rate `mu` under
/// Rng::stream(seed, 1, k).
std::vector<rqfp::Netlist> mutants(const rqfp::Netlist& base, unsigned count,
                                   std::uint64_t seed, double mu = 1.0) {
  std::vector<rqfp::Netlist> out(count, base);
  MutationParams mp;
  mp.mu = mu;
  for (unsigned k = 0; k < count; ++k) {
    auto rng = util::Rng::stream(seed, 1, k);
    mutate(out[k], rng, mp);
  }
  return out;
}

std::uint64_t counter_value(const char* name) {
  return obs::registry().counter(name).value();
}

// Mutants of a sub-word spec (full_adder, 3 PIs) and of a multi-word one
// (a random 7-PI netlist whose own function is the spec, so neutral
// offspring reach the cost phase).
TEST(Fitness, EvaluateDeltaBatchMatchesFullEvaluation) {
  const auto adder = init_netlist("full_adder");
  check_delta_contract(adder, mutants(adder, 6, 99),
                       benchmarks::get("full_adder").spec, "full_adder");
  const auto net = random_netlist_with(7, 77);
  const auto spec = rqfp::simulate(net);
  const auto correct =
      check_delta_contract(net, mutants(net, 6, 99, 0.05), spec, "7 PIs");
  EXPECT_NE(std::count(correct.begin(), correct.end(), true), 0)
      << "no neutral mutant reached the cost phase";

  // An undersized fitness span is rejected up front.
  rqfp::SimCache cache;
  rqfp::build_sim_cache(net, cache);
  rqfp::CostCache cost;
  rqfp::DeltaBatch batch;
  std::vector<Fitness> short_span(1);
  EXPECT_THROW(evaluate_delta_batch(net, cache, cost, {&net, &net}, spec, {},
                                    batch, short_span),
               std::invalid_argument);
}

TEST(Fitness, EvaluateDeltaBatchValidatesSpecShape) {
  // A spec of the wrong PO count (an empty one included) or over the
  // wrong number of variables throws before any row is read: neither the
  // simulation nor the check counters move.
  for (const unsigned pis : {3u, 8u}) {
    const auto base = random_netlist_with(pis, 500 + pis);
    const auto spec = rqfp::simulate(base);
    const auto children = mutants(base, 4, 5);
    std::vector<const rqfp::Netlist*> block;
    for (const auto& child : children) {
      block.push_back(&child);
    }
    rqfp::SimCache cache;
    rqfp::build_sim_cache(base, cache);
    rqfp::CostCache cost;
    rqfp::DeltaBatch batch;
    std::vector<Fitness> fit(block.size());

    std::vector<std::vector<tt::TruthTable>> bad;
    bad.emplace_back(spec.begin(), spec.end() - 1);
    bad.push_back(spec);
    bad.back().push_back(spec.front());
    bad.emplace_back();
    for (const unsigned vars : {pis - 1, pis + 1}) {
      bad.emplace_back();
      for (std::size_t i = 0; i < spec.size(); ++i) {
        bad.back().push_back(tt::TruthTable(vars));
      }
    }
    for (std::size_t b = 0; b < bad.size(); ++b) {
      for (const auto& ptrs :
           {std::vector<const rqfp::Netlist*>{block.front()}, block}) {
        const std::string what = std::to_string(pis) + " PIs, bad spec " +
                                 std::to_string(b) + ", batch of " +
                                 std::to_string(ptrs.size());
        const std::uint64_t words = counter_value("sim.words");
        const std::uint64_t checks = counter_value("cec.sim_checks");
        EXPECT_THROW(evaluate_delta_batch(base, cache, cost, ptrs, bad[b], {},
                                          batch, fit),
                     std::invalid_argument)
            << what;
        EXPECT_THROW(rqfp::simulate_delta_batch(base, ptrs, cache, batch,
                                                bad[b]),
                     std::invalid_argument)
            << what;
        EXPECT_EQ(counter_value("sim.words"), words) << what;
        EXPECT_EQ(counter_value("cec.sim_checks"), checks) << what;
      }
    }
  }
}

TEST(Fitness, ScreenRejectsChildWrongOnlyBeyondWordZero) {
  // 8 PIs: four words per table. The spec is a child's own function with
  // one bit of word 3 flipped, so the child matches it on words 0-2 of
  // every PO — a screen that compared only a row's leading words would
  // pass it. It must be rejected, never reported correct. Child 0 is the
  // unmutated parent (all rows read from the base cache), child 1 a
  // mutant (rows from its overlay).
  const auto base = random_netlist_with(8, 808);
  auto children = mutants(base, 4, 8);
  children[0] = base;
  for (const std::size_t j : {0u, 1u}) {
    auto spec = rqfp::simulate(children[j]);
    ASSERT_EQ(spec[0].num_words(), 4u);
    EXPECT_TRUE(check_delta_contract(base, children, spec,
                                     "exact spec")[j]);
    const std::uint64_t bit = 3 * 64 + 17;
    spec[0].set_bit(bit, !spec[0].bit(bit));
    EXPECT_FALSE(check_delta_contract(base, children, spec,
                                      "word-3 flip of child " +
                                          std::to_string(j))[j]);
  }
}

TEST(Fitness, ScreenChecksPosOnPiAndConstantPort) {
  // PO 1 reads PI 0 and PO 2 the constant port: both are final before the
  // first gate, so a spec that contradicts either rejects every child
  // before the pass simulates anything.
  for (const unsigned pis : {3u, 8u}) {
    rqfp::Netlist base(pis);
    const auto g0 = base.add_gate({2, 3, rqfp::kConstPort},
                                  rqfp::InvConfig::reversible());
    const auto g1 =
        base.add_gate({base.port_of(g0, 0), base.port_of(g0, 1),
                       pis > 3 ? rqfp::Port{4} : rqfp::kConstPort},
                      rqfp::InvConfig::reversible());
    base.add_po(base.port_of(g1, 2));
    base.add_po(1);
    base.add_po(rqfp::kConstPort);
    ASSERT_EQ(base.validate(), "");
    std::vector<rqfp::Netlist> children(3, base);
    children[1].gate(0).config = rqfp::InvConfig(0x155);
    children[2].gate(1).config = rqfp::InvConfig(0x0f3);
    const std::string what = std::to_string(pis) + " PIs";

    const auto spec = rqfp::simulate(base);
    EXPECT_TRUE(check_delta_contract(base, children, spec, what)[0]);
    for (const std::size_t po : {1u, 2u}) {
      auto wrong = spec;
      wrong[po] = ~wrong[po];
      const auto correct = check_delta_contract(
          base, children, wrong, what + ", PO " + std::to_string(po));
      EXPECT_EQ(std::count(correct.begin(), correct.end(), true), 0);

      // Rejected before the pass: no gate is simulated.
      rqfp::SimCache cache;
      rqfp::build_sim_cache(base, cache);
      rqfp::DeltaBatch batch;
      const std::uint64_t words = counter_value("sim.words");
      rqfp::simulate_delta_batch(base, {&children[1], &children[2]}, cache,
                                 batch, wrong);
      EXPECT_EQ(counter_value("sim.words"), words) << what;
      EXPECT_TRUE(batch.children[0].rejected && batch.children[1].rejected);
    }
  }
}

TEST(Fitness, ScreenRejectsWholeBlock) {
  // Against the complement of the parent's function every mutant is
  // wrong: the whole block is rejected, and the telemetry still counts one
  // check per child and one reject per rejected child.
  constexpr unsigned kLambda = 6;
  for (const unsigned pis : {3u, 8u}) {
    const auto base = random_netlist_with(pis, 900 + pis);
    auto spec = rqfp::simulate(base);
    for (auto& t : spec) {
      t = ~t;
    }
    const auto children = mutants(base, kLambda, 13, 0.05);
    const auto correct = check_delta_contract(base, children, spec,
                                              std::to_string(pis) + " PIs");
    EXPECT_EQ(std::count(correct.begin(), correct.end(), true), 0);

    std::vector<const rqfp::Netlist*> ptrs;
    for (const auto& child : children) {
      ptrs.push_back(&child);
    }
    rqfp::SimCache cache;
    rqfp::build_sim_cache(base, cache);
    rqfp::CostCache cost;
    rqfp::DeltaBatch batch;
    std::vector<Fitness> fit(kLambda);
    const std::uint64_t checks = counter_value("cec.sim_checks");
    const std::uint64_t rejects = counter_value("sim.screen_rejects");
    evaluate_delta_batch(base, cache, cost, ptrs, spec, {}, batch, fit);
    EXPECT_EQ(counter_value("cec.sim_checks") - checks, kLambda);
    EXPECT_EQ(counter_value("sim.screen_rejects") - rejects, kLambda);
  }
}

TEST(Fitness, ScreenKeepsCorrectChildAfterRejectedSiblings) {
  // Wrong siblings are rejected early in the same block; a neutral mutant
  // after them must still run to the end, be reported correct and priced
  // exactly like evaluate().
  for (const unsigned pis : {3u, 8u}) {
    const auto base = random_netlist_with(pis, 700 + pis);
    const auto spec = rqfp::simulate(base);
    std::vector<rqfp::Netlist> children;
    std::optional<rqfp::Netlist> neutral;
    MutationParams one_gene;
    one_gene.mu = 1.0 / num_genes(base);
    for (std::uint64_t k = 0; k < 2000 && (children.size() < 3 || !neutral);
         ++k) {
      auto child = base;
      auto rng = util::Rng::stream(31, pis, k);
      mutate(child, rng, children.size() < 3 ? MutationParams{} : one_gene);
      const bool correct = evaluate(child, spec).functionally_correct();
      if (!correct && children.size() < 3) {
        children.push_back(std::move(child));
      } else if (correct && !(child == base) && !neutral) {
        neutral = std::move(child);
      }
    }
    ASSERT_EQ(children.size(), 3u);
    ASSERT_TRUE(neutral.has_value()) << pis << " PIs: no neutral mutant";
    children.push_back(*neutral);
    EXPECT_EQ(check_delta_contract(base, children, spec,
                                   std::to_string(pis) + " PIs"),
              (std::vector<bool>{false, false, false, true}));
  }
}

} // namespace
} // namespace rcgp::core
