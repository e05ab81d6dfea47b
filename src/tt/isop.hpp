#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tt/truth_table.hpp"

namespace rcgp::tt {

/// A product term over up to 32 variables: variable v appears positively if
/// bit v of `polarity` & `mask` is set with polarity 1, negatively with
/// polarity 0; variables not in `mask` are absent from the cube.
struct Cube {
  std::uint32_t mask = 0;     // which variables participate
  std::uint32_t polarity = 0; // 1 = positive literal (subset of mask)

  unsigned num_literals() const;
  /// Evaluate the cube on a complete assignment (bit v of `assignment` is
  /// the value of variable v).
  bool evaluates_true(std::uint64_t assignment) const;
  std::string to_string(unsigned num_vars) const;
  bool operator==(const Cube&) const = default;
};

/// Irredundant sum-of-products via the Minato–Morreale recursion on the
/// interval [onset, onset | dc]. With dc = 0 this computes an ISOP of the
/// exact function. Result cubes are irredundant but not globally minimal.
std::vector<Cube> isop(const TruthTable& onset, const TruthTable& dc);

/// The same cover on raw words: appends the ISOP of the interval
/// [lower, upper] (lower ⊆ upper) to `cubes`. Both tables are in
/// TruthTable word layout over `num_vars` <= 31 variables; bits above
/// 2^num_vars in a sub-word table are ignored. Runs on word scratch (on the
/// stack up to 10 variables) and allocates only to grow `cubes`.
void isop(const std::uint64_t* lower, const std::uint64_t* upper,
          unsigned num_vars, std::vector<Cube>& cubes);

inline std::vector<Cube> isop(const TruthTable& onset) {
  return isop(onset, TruthTable::constant(onset.num_vars(), false));
}

/// Rebuild the truth table covered by `cubes` over `num_vars` variables —
/// used to validate the cover in tests.
TruthTable cover_to_table(const std::vector<Cube>& cubes, unsigned num_vars);

} // namespace rcgp::tt
