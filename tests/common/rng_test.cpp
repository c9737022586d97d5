#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <set>

namespace nbx {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange) {
  Rng rng(7);
  for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.below(7));
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, Uniform01Bounds) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform01();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRoughlyCalibrated) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) {
      ++hits;
    }
  }
  const double p = static_cast<double>(hits) / n;
  EXPECT_NEAR(p, 0.3, 0.02);
}

TEST(Rng, SplitStreamsAreDecorrelatedAndDeterministic) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  Rng c1_again = parent.split(1);
  EXPECT_EQ(c1.next(), c1_again.next());
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (c1.next() == c2.next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, SetStateResumesTheSameStream) {
  Rng a(77);
  (void)a.next();
  Rng b(1);
  b.set_state(a.state());
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(a.next(), b.next());
    EXPECT_EQ(a.below(2205), b.below(2205));
  }
  EXPECT_EQ(a.state(), b.state());
}

TEST(Rng, XoshiroStepIsNextOnABareState) {
  Rng rng(5);
  std::array<std::uint64_t, 4> s = rng.state();
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(xoshiro256ss_step(s[0], s[1], s[2], s[3]), rng.next());
  }
  EXPECT_EQ(s, rng.state());
}

TEST(Rng, SampleWithoutReplacementBasics) {
  Rng rng(9);
  const auto sample = rng.sample_without_replacement(100, 10);
  EXPECT_EQ(sample.size(), 10u);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
  for (const auto v : sample) {
    EXPECT_LT(v, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(13);
  const auto sample = rng.sample_without_replacement(20, 20);
  std::set<std::uint64_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  EXPECT_EQ(*unique.begin(), 0u);
  EXPECT_EQ(*unique.rbegin(), 19u);
}

TEST(Rng, SampleWithoutReplacementZero) {
  Rng rng(15);
  EXPECT_TRUE(rng.sample_without_replacement(5, 0).empty());
}

TEST(Rng, SampleIsRoughlyUniform) {
  // Each position of [0,10) should be selected ~equally often when
  // sampling 5 of 10 many times.
  Rng rng(21);
  std::vector<int> counts(10, 0);
  const int reps = 4000;
  for (int r = 0; r < reps; ++r) {
    for (const auto v : rng.sample_without_replacement(10, 5)) {
      ++counts[static_cast<std::size_t>(v)];
    }
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / reps, 0.5, 0.05);
  }
}

}  // namespace
}  // namespace nbx
