#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/request.hpp"
#include "tt/truth_table.hpp"

namespace perfbench {

/// splitmix64: the benchmark's own generator, so its inputs do not move
/// when the program's util::Rng changes. Same seed, same sequence, on
/// every platform.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform integer in [0, bound) by rejection (no modulo bias).
  std::uint64_t below(std::uint64_t bound);

private:
  std::uint64_t state_;
};

/// Seed of an independent sub-stream `stream` of the benchmark seed.
std::uint64_t substream(std::uint64_t seed, std::uint64_t stream);

/// A permutation of 0..n-1 drawn from (seed, stream) by Fisher-Yates.
std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::uint64_t stream);

/// Shape of the serve-npn request stream.
struct NpnStreamShape {
  /// Requests per round; every round starts from an empty store.
  std::size_t requests = 0;
  /// Share of 3-input functions in every round (rounded to a count); the
  /// rest have 4 inputs.
  double share_3_inputs = 0.0;
  /// CGP generation budget each request carries.
  std::uint64_t generations = 0;
};

/// A random function of `num_vars` inputs that depends on at least two of
/// them (constants and single literals are not synthesis jobs).
rcgp::tt::TruthTable random_function(SplitMix64& rng, unsigned num_vars);

/// Round `round` of the serve-npn stream for benchmark seed `seed`: inline
/// single-output specs with ids "r<round>-<index>". Everything the request
/// leaves unset (threads, lambda, mu, cache policy, seed) stays at the
/// executor's defaults.
std::vector<rcgp::core::SynthesisRequest>
npn_round(std::uint64_t seed, std::uint64_t round, const NpnStreamShape& shape);

} // namespace perfbench
