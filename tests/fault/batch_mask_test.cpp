// batch_mask_test.cpp — the batched mask-generation overload must
// reproduce the scalar generator lane for lane, draw for draw (PR:
// bit-parallel batched trials).
#include <gtest/gtest.h>

#include "common/batch_bitvec.hpp"
#include "fault/mask_generator.hpp"

namespace nbx {
namespace {

void expect_lane_equals_scalar(const MaskGenerator& gen,
                               std::uint64_t seed) {
  // The same seed must produce the same mask through both sinks, and
  // leave both Rngs in the same state (checked by generating twice).
  Rng scalar_rng(seed);
  Rng batch_rng(seed);
  BitVec scalar(gen.sites());
  BatchBitVec batch(gen.sites());
  for (int round = 0; round < 3; ++round) {
    gen.generate(scalar_rng, scalar);
    batch.clear_all();
    gen.generate(batch_rng, batch, /*lane=*/round % 5);
    for (std::size_t s = 0; s < gen.sites(); ++s) {
      ASSERT_EQ(scalar.get(s), batch.get(s, round % 5))
          << "site " << s << " round " << round;
    }
  }
}

TEST(BatchMaskGenerator, RoundNearestMatchesScalar) {
  expect_lane_equals_scalar(MaskGenerator(5040, 2.0), 2026);
  expect_lane_equals_scalar(MaskGenerator(512, 10.0), 7);
}

TEST(BatchMaskGenerator, BernoulliMatchesScalar) {
  expect_lane_equals_scalar(
      MaskGenerator(672, 1.5, FaultCountPolicy::kBernoulli), 11);
}

TEST(BatchMaskGenerator, BurstMatchesScalar) {
  expect_lane_equals_scalar(
      MaskGenerator(1536, 3.0, FaultCountPolicy::kBurst, 4), 13);
}

TEST(BatchMaskGenerator, ZeroPercentWritesNothing) {
  const MaskGenerator gen(256, 0.0);
  Rng rng(5);
  BatchBitVec batch(256);
  gen.generate(rng, batch, 9);
  for (std::size_t s = 0; s < batch.sites(); ++s) {
    EXPECT_EQ(batch.row(s)[0], 0u);
  }
}

TEST(BatchMaskGenerator, LanesAreIndependentColumns) {
  // Two lanes written from different seeds must not interfere; each
  // must match its own scalar stream.
  const MaskGenerator gen(300, 5.0);
  BatchBitVec batch(300);
  Rng rng_a(101);
  Rng rng_b(202);
  gen.generate(rng_a, batch, 3);
  gen.generate(rng_b, batch, 48);

  Rng check_a(101);
  Rng check_b(202);
  BitVec mask_a(300);
  BitVec mask_b(300);
  gen.generate(check_a, mask_a);
  gen.generate(check_b, mask_b);
  for (std::size_t s = 0; s < 300; ++s) {
    EXPECT_EQ(batch.get(s, 3), mask_a.get(s));
    EXPECT_EQ(batch.get(s, 48), mask_b.get(s));
  }
  // No other lane was touched.
  const std::uint64_t allowed = (std::uint64_t{1} << 3) |
                                (std::uint64_t{1} << 48);
  for (std::size_t s = 0; s < 300; ++s) {
    EXPECT_EQ(batch.row(s)[0] & ~allowed, 0u);
  }
}

TEST(BatchMaskGenerator, LeadingSegmentOfLargerBatchForDatapathScope) {
  // The generator may cover only the leading segment of a bigger mask
  // (datapath-only injection): trailing sites stay zero.
  const MaskGenerator gen(100, 8.0);
  BatchBitVec batch(160);
  Rng rng(77);
  gen.generate(rng, batch, 0);
  Rng check(77);
  BitVec scalar(100);
  gen.generate(check, scalar);
  for (std::size_t s = 0; s < 100; ++s) {
    EXPECT_EQ(batch.get(s, 0), scalar.get(s));
  }
  for (std::size_t s = 100; s < 160; ++s) {
    EXPECT_EQ(batch.row(s)[0], 0u);
  }
}

}  // namespace
}  // namespace nbx
