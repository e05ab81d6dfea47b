#include "tt/isop.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace rcgp::tt {

unsigned Cube::num_literals() const {
  return static_cast<unsigned>(std::popcount(mask));
}

bool Cube::evaluates_true(std::uint64_t assignment) const {
  return ((static_cast<std::uint32_t>(assignment) ^ polarity) & mask) == 0;
}

std::string Cube::to_string(unsigned num_vars) const {
  std::string s(num_vars, '-');
  for (unsigned v = 0; v < num_vars; ++v) {
    if (mask & (1u << v)) {
      s[v] = (polarity & (1u << v)) ? '1' : '0';
    }
  }
  return s;
}

namespace {

constexpr std::uint64_t kAllOnes = ~std::uint64_t{0};

// Single-word tables below are *replicated*: a table over n <= 6 variables
// repeats its 2^n bits across the whole word, so it reads the same as a
// table over any wider variable set and the constant tests are 0 / ~0.
std::uint64_t cofactor0(std::uint64_t w, unsigned var) {
  const std::uint64_t low = w & ~kProjectionMasks[var];
  return low | (low << (1u << var));
}

std::uint64_t cofactor1(std::uint64_t w, unsigned var) {
  const std::uint64_t high = w & kProjectionMasks[var];
  return high | (high >> (1u << var));
}

bool word_depends_on(std::uint64_t w, unsigned var) {
  return ((w >> (1u << var)) ^ w) & ~kProjectionMasks[var];
}

void tag_cubes(std::vector<Cube>& cubes, std::size_t first, unsigned var,
               bool positive) {
  for (std::size_t i = first; i < cubes.size(); ++i) {
    cubes[i].mask |= 1u << var;
    if (positive) {
      cubes[i].polarity |= 1u << var;
    }
  }
}

// Minato-Morreale ISOP of the interval [lower, upper] over `num_vars` <= 6
// variables in one replicated word. Appends the cover's cubes and returns
// the covered set. Cube order: cubes with the negative literal of the top
// variable, then the positive literal, then neither.
std::uint64_t isop_word(std::uint64_t lower, std::uint64_t upper,
                        unsigned num_vars, std::vector<Cube>& cubes) {
  if (lower == 0) {
    return 0;
  }
  if (upper == kAllOnes) {
    cubes.push_back(Cube{});
    return kAllOnes;
  }
  // The top variable either bound depends on; the interval then depends
  // on no higher one, so the children recurse over `var` variables.
  unsigned var = num_vars;
  while (var-- > 0) {
    if (word_depends_on(lower, var) || word_depends_on(upper, var)) {
      break;
    }
  }
  if (var >= num_vars) {
    // A non-constant interval that depends on no variable cannot happen.
    throw std::logic_error("isop: inconsistent interval");
  }
  const std::uint64_t l0 = cofactor0(lower, var);
  const std::uint64_t l1 = cofactor1(lower, var);
  const std::uint64_t u0 = cofactor0(upper, var);
  const std::uint64_t u1 = cofactor1(upper, var);

  // Cubes that must contain ~var: l0 minterms u1 cannot cover.
  const std::size_t first0 = cubes.size();
  const std::uint64_t cov0 = isop_word(l0 & ~u1, u0, var, cubes);
  tag_cubes(cubes, first0, var, false);
  // Cubes that must contain var.
  const std::size_t first1 = cubes.size();
  const std::uint64_t cov1 = isop_word(l1 & ~u0, u1, var, cubes);
  tag_cubes(cubes, first1, var, true);
  // The remainder is covered by var-independent cubes.
  const std::uint64_t cov2 =
      isop_word((l0 & ~cov0) | (l1 & ~cov1), u0 & u1, var, cubes);
  return (cov0 & ~kProjectionMasks[var]) | (cov1 & kProjectionMasks[var]) |
         cov2;
}

bool table_depends_on(const std::uint64_t* t, std::size_t words,
                      unsigned var) {
  if (var < 6) {
    for (std::size_t i = 0; i < words; ++i) {
      if (word_depends_on(t[i], var)) {
        return true;
      }
    }
    return false;
  }
  const std::size_t stride = std::size_t{1} << (var - 6);
  for (std::size_t i = 0; i < words; i += 2 * stride) {
    if (!std::equal(t + i, t + i + stride, t + i + stride)) {
      return true;
    }
  }
  return false;
}

// The same recursion over `num_vars` >= 6 variables in
// num_words_for(num_vars) words. Writes the covered set to `covered`;
// `scratch` holds at least 5 * num_words_for(num_vars) words for the
// children's operands and covers.
// Once the top variable is cofactored out only lower variables matter, so
// each level works on half the words of its parent and the recursion falls
// through to isop_word once the top variable is below 6.
void isop_words(const std::uint64_t* lower, const std::uint64_t* upper,
                unsigned num_vars, std::uint64_t* covered,
                std::uint64_t* scratch, std::vector<Cube>& cubes) {
  const std::size_t words = num_words_for(num_vars);
  if (std::all_of(lower, lower + words,
                  [](std::uint64_t w) { return w == 0; })) {
    std::fill(covered, covered + words, 0);
    return;
  }
  if (std::all_of(upper, upper + words,
                  [](std::uint64_t w) { return w == kAllOnes; })) {
    cubes.push_back(Cube{});
    std::fill(covered, covered + words, kAllOnes);
    return;
  }
  unsigned var = num_vars;
  while (var-- > 0) {
    if (table_depends_on(lower, words, var) ||
        table_depends_on(upper, words, var)) {
      break;
    }
  }
  if (var >= num_vars) {
    throw std::logic_error("isop: inconsistent interval");
  }
  if (var < 6) {
    // Independent of variables 6.., so every word holds the same
    // replicated table over var + 1 variables.
    std::fill(covered, covered + words,
              isop_word(lower[0], upper[0], var + 1, cubes));
    return;
  }
  const std::size_t half = num_words_for(var);
  const std::uint64_t* l0 = lower;
  const std::uint64_t* l1 = lower + half;
  const std::uint64_t* u0 = upper;
  const std::uint64_t* u1 = upper + half;
  std::uint64_t* operand = scratch;
  std::uint64_t* bound = scratch + half;
  std::uint64_t* cov0 = scratch + 2 * half;
  std::uint64_t* cov1 = scratch + 3 * half;
  std::uint64_t* cov2 = scratch + 4 * half;
  std::uint64_t* child_scratch = scratch + 5 * half;

  const std::size_t first0 = cubes.size();
  for (std::size_t i = 0; i < half; ++i) {
    operand[i] = l0[i] & ~u1[i];
  }
  isop_words(operand, u0, var, cov0, child_scratch, cubes);
  tag_cubes(cubes, first0, var, false);

  const std::size_t first1 = cubes.size();
  for (std::size_t i = 0; i < half; ++i) {
    operand[i] = l1[i] & ~u0[i];
  }
  isop_words(operand, u1, var, cov1, child_scratch, cubes);
  tag_cubes(cubes, first1, var, true);

  for (std::size_t i = 0; i < half; ++i) {
    operand[i] = (l0[i] & ~cov0[i]) | (l1[i] & ~cov1[i]);
    bound[i] = u0[i] & u1[i];
  }
  isop_words(operand, bound, var, cov2, child_scratch, cubes);

  for (std::size_t i = 0; i < half; ++i) {
    covered[i] = cov0[i] | cov2[i];
    covered[half + i] = cov1[i] | cov2[i];
  }
  // Independent of variables above var: repeat the 2 * half words.
  for (std::size_t i = 2 * half; i < words; ++i) {
    covered[i] = covered[i - 2 * half];
  }
}

} // namespace

void isop(const std::uint64_t* lower, const std::uint64_t* upper,
          unsigned num_vars, std::vector<Cube>& cubes) {
  if (num_vars > 31) {
    throw std::invalid_argument("isop: too many variables for Cube");
  }
  if (num_vars < 6) {
    // Replicate the 2^num_vars low bits across the word.
    const unsigned bits = 1u << num_vars;
    std::uint64_t lo = lower[0] & ((std::uint64_t{1} << bits) - 1);
    std::uint64_t up = upper[0] & ((std::uint64_t{1} << bits) - 1);
    for (unsigned shift = bits; shift < 64; shift <<= 1) {
      lo |= lo << shift;
      up |= up << shift;
    }
    isop_word(lo, up, num_vars, cubes);
    return;
  }
  // The covered set plus the children's operands: 5 * (words / 2) words
  // per level, halving down the recursion, fit in 6 * words. Tables of up
  // to 10 variables stay on the stack.
  const std::size_t words = num_words_for(num_vars);
  constexpr std::size_t kInlineWords = 6 * 16;
  std::array<std::uint64_t, kInlineWords> inline_scratch;
  std::vector<std::uint64_t> heap_scratch;
  std::uint64_t* scratch = inline_scratch.data();
  if (6 * words > kInlineWords) {
    heap_scratch.resize(6 * words);
    scratch = heap_scratch.data();
  }
  isop_words(lower, upper, num_vars, scratch, scratch + words, cubes);
}

std::vector<Cube> isop(const TruthTable& onset, const TruthTable& dc) {
  if (onset.num_vars() != dc.num_vars()) {
    throw std::invalid_argument("isop: arity mismatch");
  }
  std::vector<Cube> cubes;
  isop(onset.data(), (onset | dc).data(), onset.num_vars(), cubes);
  return cubes;
}

TruthTable cover_to_table(const std::vector<Cube>& cubes, unsigned num_vars) {
  TruthTable t(num_vars);
  for (std::uint64_t a = 0; a < t.num_bits(); ++a) {
    for (const auto& c : cubes) {
      if (c.evaluates_true(a)) {
        t.set_bit(a, true);
        break;
      }
    }
  }
  return t;
}

} // namespace rcgp::tt
