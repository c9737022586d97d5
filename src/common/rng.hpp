// rng.hpp — deterministic pseudo-random number generation.
//
// Every stochastic element of the reproduction (fault-mask generation,
// workload synthesis, trial seeding) draws from this generator so that
// experiments are exactly repeatable from a single seed, as required for
// a credible fault-injection study.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string_view>
#include <vector>

namespace nbx {

/// One xoshiro256** 1.0 step on a bare state: returns the output and
/// advances (s0, s1, s2, s3). `Word` is std::uint64_t, or a GCC vector of
/// them holding one state per element: Rng::next() is this on its own
/// state, and the wide engine runs it on vector registers of lane states.
template <class Word>
inline Word xoshiro256ss_step(Word& s0, Word& s1, Word& s2, Word& s3) {
  // std::rotl takes no vectors; GCC turns this into rol, or vprolq.
  const auto rotl = [](Word x, int r) { return (x << r) | (x >> (64 - r)); };
  const Word result = rotl(s1 * 5, 7) * 9;
  const Word t = s1 << 17;
  s2 ^= s0;
  s3 ^= s1;
  s1 ^= s2;
  s0 ^= s3;
  s2 ^= t;
  s3 = rotl(s3, 45);
  return result;
}

/// SplitMix64 — used to expand a single user seed into generator state.
/// Reference: Steele, Lea & Flood, "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next();

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 (Blackman & Vigna) — the workhorse generator. Small,
/// fast, passes BigCrush, and trivially seedable from SplitMix64.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value.
  std::uint64_t next() {
    return xoshiro256ss_step(s_[0], s_[1], s_[2], s_[3]);
  }

  /// UniformRandomBitGenerator interface so <algorithm> shuffles work.
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~std::uint64_t{0}; }
  result_type operator()() { return next(); }

  /// Uniform integer in [0, bound). bound must be nonzero. Uses Lemire's
  /// multiply-shift rejection method to avoid modulo bias.
  std::uint64_t below(std::uint64_t bound) {
    assert(bound != 0);
    // Lemire's nearly-divisionless bounded generation.
    const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    const auto low = static_cast<std::uint64_t>(m);
    const auto high = static_cast<std::uint64_t>(m >> 64);
    if (low < bound) [[unlikely]] {
      return below_finish(bound, low, high);
    }
    return high;
  }

  /// The raw xoshiro256** state, and its inverse: a generator whose
  /// state is set to another's state() draws the same sequence. split()
  /// derives children from the construction seed, not from this state.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const {
    return {s_[0], s_[1], s_[2], s_[3]};
  }
  void set_state(const std::array<std::uint64_t, 4>& s) {
    for (std::size_t i = 0; i < 4; ++i) {
      s_[i] = s[i];
    }
  }

  /// Uniform double in [0, 1).
  double uniform01();

  /// True with probability p (clamped to [0,1]).
  bool bernoulli(double p);

  /// Splits off an independently seeded child generator. Children of the
  /// same parent with distinct `stream` values are decorrelated; used to
  /// give each trial / each cell its own stream.
  [[nodiscard]] Rng split(std::uint64_t stream) const;

  /// Samples `k` distinct values from [0, n) in O(k) expected time
  /// (Floyd's algorithm). Order of the result is unspecified.
  /// Requires k <= n.
  std::vector<std::uint64_t> sample_without_replacement(std::uint64_t n,
                                                        std::uint64_t k);

 private:
  /// The rare tail of below(bound), out of line so that below() inlines
  /// small: given the first draw's 128-bit product x * bound split into
  /// (high, low) with low < bound, runs Lemire's rejection loop on this
  /// generator and returns the accepted value.
  std::uint64_t below_finish(std::uint64_t bound, std::uint64_t low,
                             std::uint64_t high);

  std::uint64_t s_[4];
  std::uint64_t seed_;  // retained so split() can derive child seeds
};

/// SplitMix64's finalizer as a pure function: a strong 64-bit mixer.
std::uint64_t mix64(std::uint64_t x);

/// Derives one seed from an ordered tuple of 64-bit keys by chaining
/// mix64 over a hash-combine accumulator. This is the counter-based
/// split used by the parallel experiment harness: the result is a pure
/// function of the key tuple — no generator state is consumed — so any
/// scheduling of the keyed work items reproduces identical streams.
/// Distinct tuples (including different lengths) decorrelate.
std::uint64_t derive_seed(std::initializer_list<std::uint64_t> keys);

/// FNV-1a 64-bit string hash. Stable across platforms and runs; used to
/// fold ALU names into derived seeds.
std::uint64_t fnv1a64(std::string_view s);

}  // namespace nbx
