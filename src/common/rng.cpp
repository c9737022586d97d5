#include "common/rng.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

namespace nbx {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) {
    s = sm.next();
  }
}

std::uint64_t Rng::below_finish(std::uint64_t bound, std::uint64_t low,
                                std::uint64_t high) {
  assert(bound != 0 && low < bound);
  const std::uint64_t t = (0 - bound) % bound;
  while (low < t) {
    const __uint128_t m = static_cast<__uint128_t>(next()) * bound;
    low = static_cast<std::uint64_t>(m);
    high = static_cast<std::uint64_t>(m >> 64);
  }
  return high;
}

double Rng::uniform01() {
  // 53 high bits -> [0,1) double.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

Rng Rng::split(std::uint64_t stream) const {
  // Derive a child seed that depends on both the parent seed and the
  // stream index; SplitMix64's avalanche decorrelates adjacent streams.
  SplitMix64 sm(seed_ ^ (stream * 0xd1342543de82ef95ULL + 0x2545f4914f6cdd1dULL));
  return Rng(sm.next());
}

std::uint64_t mix64(std::uint64_t x) {
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t derive_seed(std::initializer_list<std::uint64_t> keys) {
  // Hash-combine chain with a full-avalanche mixer per key. Seeding the
  // accumulator with the golden ratio keeps the empty tuple nonzero.
  std::uint64_t h = 0x9e3779b97f4a7c15ULL;
  for (const std::uint64_t k : keys) {
    h = mix64(h ^ (k + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2)));
  }
  return h;
}

std::uint64_t fnv1a64(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::vector<std::uint64_t> Rng::sample_without_replacement(std::uint64_t n,
                                                           std::uint64_t k) {
  assert(k <= n);
  // Floyd's algorithm: k insertions into a set, no O(n) scratch space.
  std::unordered_set<std::uint64_t> chosen;
  chosen.reserve(static_cast<std::size_t>(k) * 2);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = below(j + 1);
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace nbx
