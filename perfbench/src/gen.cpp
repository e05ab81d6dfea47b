#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfbench {

std::uint64_t SplitMix64::below(std::uint64_t bound) {
  if (bound == 0) {
    throw std::invalid_argument("SplitMix64::below(0)");
  }
  // Largest multiple of `bound` representable; draws above it are redrawn.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % bound;
  std::uint64_t x = next();
  while (x >= limit) {
    x = next();
  }
  return x % bound;
}

std::uint64_t substream(std::uint64_t seed, std::uint64_t stream) {
  SplitMix64 mix(seed ^ (stream * 0xD1B54A32D192ED03ULL));
  mix.next();
  return mix.next();
}

std::vector<std::size_t> shuffled_order(std::size_t n, std::uint64_t seed,
                                        std::uint64_t stream) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  SplitMix64 rng(substream(seed, stream));
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

rcgp::tt::TruthTable random_function(SplitMix64& rng, unsigned num_vars) {
  if (num_vars < 2 || num_vars > 6) {
    throw std::invalid_argument("random_function: 2..6 inputs");
  }
  const std::uint64_t mask =
      num_vars == 6 ? ~0ULL : (1ULL << (1U << num_vars)) - 1;
  for (;;) {
    rcgp::tt::TruthTable t(num_vars);
    t.set_word(0, rng.next() & mask);
    unsigned support = 0;
    for (unsigned v = 0; v < num_vars; ++v) {
      support += t.depends_on(v) ? 1 : 0;
    }
    if (support >= 2) {
      return t;
    }
  }
}

std::vector<rcgp::core::SynthesisRequest>
npn_round(std::uint64_t seed, std::uint64_t round, const NpnStreamShape& shape) {
  SplitMix64 rng(substream(seed, 0x5E57E000ULL + round));
  // Exactly this many 3-input functions per round, at seeded positions: a
  // drawn mix would move every round's cost and miss count with it.
  const auto three = static_cast<std::size_t>(
      std::llround(shape.share_3_inputs * static_cast<double>(shape.requests)));
  std::vector<unsigned> vars(shape.requests, 4);
  std::fill(vars.begin(), vars.begin() + std::min(three, vars.size()), 3);
  for (std::size_t i = vars.size(); i > 1; --i) {
    std::swap(vars[i - 1], vars[rng.below(i)]);
  }
  std::vector<rcgp::core::SynthesisRequest> out;
  out.reserve(shape.requests);
  for (std::size_t i = 0; i < shape.requests; ++i) {
    rcgp::core::SynthesisRequest r;
    r.id = std::to_string(round);
    r.id.insert(0, 1, 'r');
    r.id += '-';
    r.id += std::to_string(i);
    r.spec.push_back(random_function(rng, vars[i]));
    r.generations = shape.generations;
    out.push_back(std::move(r));
  }
  return out;
}

} // namespace perfbench
