#pragma once

#include <cstdint>
#include <optional>

#include "core/fitness.hpp"

namespace perfbench {

/// A pinned time-to-quality target: the paper's lexicographic cost
/// (gates, then garbage, then buffers) one row must reach.
struct Target {
  std::uint32_t n_r = 0;
  std::uint32_t n_g = 0;
  std::uint32_t n_b = 0;
};

/// True when `f` is functionally correct and at least as good as `t` in
/// the paper's order: fewer gates wins; on equal gates fewer garbage
/// outputs; on equal garbage fewer buffers.
inline bool reaches(const rcgp::core::Fitness& f, const Target& t) {
  if (!f.functionally_correct()) {
    return false;
  }
  if (f.n_r != t.n_r) {
    return f.n_r < t.n_r;
  }
  if (f.n_g != t.n_g) {
    return f.n_g < t.n_g;
  }
  return f.n_b <= t.n_b;
}

/// Records when a run first reaches its target. Feed it every improvement
/// with the seconds elapsed since the request started; later improvements
/// never move the first reach time.
class TargetClock {
public:
  explicit TargetClock(std::optional<Target> target) : target_(target) {}

  void observe(double elapsed_s, const rcgp::core::Fitness& f) {
    if (target_ && !reached_s_ && reaches(f, *target_)) {
      reached_s_ = elapsed_s;
    }
  }

  bool has_target() const { return target_.has_value(); }
  std::optional<double> reached_s() const { return reached_s_; }

private:
  std::optional<Target> target_;
  std::optional<double> reached_s_;
};

} // namespace perfbench
