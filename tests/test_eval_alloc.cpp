// Zero-allocation contract of the offspring evaluator: once warm, the
// per-generation work of the (1+λ) loop — copy the parent into each
// offspring slot, mutate it, and score the λ-block through
// core::evaluate_delta_batch — never touches the heap. This TU replaces
// the global operator new/delete with counting versions, so it is its own
// test binary.
//
// Sanitizer builds skip the tests: ASan and TSan install their own
// allocator hooks, and a program-level operator new would route around
// (or fight) them.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "benchmarks/benchmarks.hpp"
#include "core/fitness.hpp"
#include "core/flow.hpp"
#include "core/mutation.hpp"
#include "rqfp/cost.hpp"
#include "rqfp/simulate.hpp"
#include "util/rng.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define RCGP_ALLOC_HOOKS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RCGP_ALLOC_HOOKS 0
#endif
#endif
#ifndef RCGP_ALLOC_HOOKS
#define RCGP_ALLOC_HOOKS 1
#endif

namespace {
std::atomic<std::size_t> g_allocations{0};
} // namespace

#if RCGP_ALLOC_HOOKS

void* operator new(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& t) noexcept {
  return ::operator new(n, t);
}
void* operator new(std::size_t n, std::align_val_t al) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  const std::size_t a = std::max(static_cast<std::size_t>(al), sizeof(void*));
  if (posix_memalign(&p, a, n == 0 ? 1 : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif

namespace rcgp::core {
namespace {

/// Runs `generations` λ-blocks of mutate + evaluate_delta_batch (spec
/// screening on) against a fixed parent after one warm-up generation;
/// returns the heap allocations the measured generations made.
std::size_t allocations_per_run(const std::string& name, double mu,
                                unsigned generations) {
  const auto bench = benchmarks::get(name);
  FlowOptions opt;
  opt.run_cgp = false;
  const rqfp::Netlist parent = synthesize(bench.spec, opt).initial;
  const FitnessOptions fo;
  MutationParams mp;
  mp.mu = mu;

  rqfp::SimCache cache;
  rqfp::build_sim_cache(parent, cache);
  rqfp::CostCache cost;
  rqfp::build_cost_cache(parent, fo.schedule, cost);

  constexpr unsigned kLambda = 4;
  std::vector<rqfp::Netlist> children(kLambda, parent);
  std::vector<const rqfp::Netlist*> ptrs;
  for (const auto& child : children) {
    ptrs.push_back(&child);
  }
  std::vector<Fitness> fitness(kLambda);
  rqfp::DeltaBatch batch;

  std::size_t correct = 0;
  std::size_t rejected = 0;
  const auto generation = [&](std::uint64_t gen) {
    for (unsigned k = 0; k < kLambda; ++k) {
      children[k] = parent;
      util::Rng rng = util::Rng::stream(42, gen, k);
      mutate(children[k], rng, mp);
    }
    evaluate_delta_batch(parent, cache, cost, ptrs, bench.spec, fo, batch,
                         fitness);
    for (const Fitness& f : fitness) {
      correct += f.functionally_correct() ? 1 : 0;
      rejected += f.functionally_correct() ? 0 : 1;
    }
  };

  generation(0); // warm-up: scratch reaches its steady-state capacity
  correct = rejected = 0;
  const std::size_t before = g_allocations.load();
  for (std::uint64_t gen = 1; gen <= generations; ++gen) {
    generation(gen);
  }
  const std::size_t made = g_allocations.load() - before;
  // Both outcomes of the screen must have run in the measured blocks, or
  // the test would miss their scratch: rejected children, and correct
  // ones that passed it and reached the cost phase.
  EXPECT_GT(correct, 0u) << name << ": no offspring reached the cost phase";
  EXPECT_GT(rejected, 0u) << name << ": the screen rejected no offspring";
  return made;
}

TEST(EvalAlloc, OneWordSubWordTableAllocatesNothing) {
  if (!RCGP_ALLOC_HOOKS) {
    GTEST_SKIP() << "sanitizer build: allocator hooks disabled";
  }
  // c17: 5 PIs, a 32-bit table in one masked word.
  EXPECT_EQ(allocations_per_run("c17", 1.0, 200), 0u);
}

TEST(EvalAlloc, MultiWordTableAllocatesNothing) {
  if (!RCGP_ALLOC_HOOKS) {
    GTEST_SKIP() << "sanitizer build: allocator hooks disabled";
  }
  // hwb8: 8 PIs, 4 words per table, the SIMD kernel path. At μ = 1 its
  // offspring are almost never correct; a few genes per offspring let
  // some reach the cost phase.
  EXPECT_EQ(allocations_per_run("hwb8", 0.001, 20), 0u);
}

TEST(EvalAlloc, CounterSeesAllocations) {
  if (!RCGP_ALLOC_HOOKS) {
    GTEST_SKIP() << "sanitizer build: allocator hooks disabled";
  }
  const std::size_t before = g_allocations.load();
  auto* v = new std::vector<int>(100);
  delete v;
  EXPECT_GE(g_allocations.load() - before, 2u);
}

} // namespace
} // namespace rcgp::core
