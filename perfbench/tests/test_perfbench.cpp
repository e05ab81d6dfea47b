// Tests of the benchmark's own logic: the seeded request generator, the
// percentile calculation and the time-to-quality target clock.

#include <gtest/gtest.h>

#include <set>

#include "gen.hpp"
#include "stats.hpp"
#include "targets.hpp"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameRequests) {
  const NpnStreamShape shape{64, 0.5, 100};
  const auto a = npn_round(42, 3, shape);
  const auto b = npn_round(42, 3, shape);
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
}

TEST(Generator, SeedAndRoundChangeTheStream) {
  const NpnStreamShape shape{64, 0.5, 100};
  const auto base = npn_round(42, 3, shape);
  EXPECT_NE(npn_round(43, 3, shape)[0].spec, base[0].spec);
  EXPECT_NE(npn_round(42, 4, shape)[0].spec, base[0].spec);
}

TEST(Generator, RequestsLeaveExecutorDefaultsUnset) {
  const NpnStreamShape shape{200, 0.7, 1234};
  unsigned three = 0;
  std::set<std::string> ids;
  for (const auto& r : npn_round(7, 0, shape)) {
    ids.insert(r.id);
    ASSERT_EQ(r.spec.size(), 1u);
    const unsigned vars = r.spec[0].num_vars();
    ASSERT_TRUE(vars == 3 || vars == 4);
    three += vars == 3 ? 1 : 0;
    unsigned support = 0;
    for (unsigned v = 0; v < vars; ++v) {
      support += r.spec[0].depends_on(v) ? 1 : 0;
    }
    EXPECT_GE(support, 2u);
    EXPECT_EQ(r.generations, 1234u);
    EXPECT_EQ(r.threads, 0u);
    EXPECT_EQ(r.lambda, 0u);
    EXPECT_EQ(r.seed, 0u);
    EXPECT_EQ(r.cache, rcgp::core::CachePolicy::kUse);
    EXPECT_TRUE(r.circuit.empty());
  }
  EXPECT_EQ(ids.size(), 200u);
  EXPECT_EQ(three, 140u); // exactly 70 % of every round
}

TEST(Generator, ShuffleIsASeededPermutation) {
  const auto a = shuffled_order(9, 5, 2);
  EXPECT_EQ(a, shuffled_order(9, 5, 2));
  EXPECT_NE(a, shuffled_order(9, 5, 3));
  std::set<std::size_t> seen(a.begin(), a.end());
  EXPECT_EQ(seen.size(), 9u);
  EXPECT_EQ(*seen.rbegin(), 8u);
}

TEST(Generator, BelowStaysInRange) {
  SplitMix64 rng(1);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 1000ULL, (1ULL << 63) + 1}) {
    for (int i = 0; i < 100; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
  EXPECT_THROW(rng.below(0), std::invalid_argument);
}

TEST(Stats, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Stats, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) {
    v.push_back(static_cast<double>(1001 - i)); // unsorted input
  }
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 500.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.99), 990.0);
  EXPECT_EQ(samples_beyond(v, percentile(v, 0.99)), 10u);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_DOUBLE_EQ(percentile({1.0, 2.0}, 0.5), 1.0);
  EXPECT_THROW(percentile(v, 0.0), std::invalid_argument);
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
}

rcgp::core::Fitness fitness(std::uint32_t n_r, std::uint32_t n_g,
                            std::uint32_t n_b, double success = 1.0) {
  rcgp::core::Fitness f;
  f.success_rate = success;
  f.n_r = n_r;
  f.n_g = n_g;
  f.n_b = n_b;
  return f;
}

TEST(Targets, LexicographicReach) {
  const Target t{10, 5, 7};
  EXPECT_TRUE(reaches(fitness(10, 5, 7), t));  // equal
  EXPECT_TRUE(reaches(fitness(9, 50, 70), t)); // fewer gates wins
  EXPECT_TRUE(reaches(fitness(10, 4, 99), t)); // then garbage
  EXPECT_TRUE(reaches(fitness(10, 5, 6), t));  // then buffers
  EXPECT_FALSE(reaches(fitness(11, 0, 0), t));
  EXPECT_FALSE(reaches(fitness(10, 6, 0), t));
  EXPECT_FALSE(reaches(fitness(10, 5, 8), t));
  EXPECT_FALSE(reaches(fitness(1, 1, 1, 0.99), t)); // not correct
}

TEST(Targets, ClockKeepsTheFirstReach) {
  TargetClock clock(Target{10, 5, 7});
  EXPECT_TRUE(clock.has_target());
  clock.observe(0.1, fitness(12, 5, 7));
  EXPECT_FALSE(clock.reached_s());
  clock.observe(0.2, fitness(10, 5, 7));
  clock.observe(0.3, fitness(9, 5, 7));
  ASSERT_TRUE(clock.reached_s());
  EXPECT_DOUBLE_EQ(*clock.reached_s(), 0.2);
}

TEST(Targets, NoTargetNeverReaches) {
  TargetClock clock(std::nullopt);
  EXPECT_FALSE(clock.has_target());
  clock.observe(0.1, fitness(1, 1, 1));
  EXPECT_FALSE(clock.reached_s());
}

} // namespace
} // namespace perfbench
