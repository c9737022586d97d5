// batch_bitvec_test.cpp — the lane-sliced bit matrix under the batched
// trial engine (PR: bit-parallel batched trials).
#include <gtest/gtest.h>

#include "common/batch_bitvec.hpp"
#include "common/rng.hpp"

namespace nbx {
namespace {

TEST(BatchBitVec, StartsAllZero) {
  const BatchBitVec m(100);
  EXPECT_EQ(m.sites(), 100u);
  EXPECT_FALSE(m.empty());
  for (std::size_t s = 0; s < m.sites(); ++s) {
    EXPECT_EQ(m.row(s)[0], 0u);
  }
}

TEST(BatchBitVec, SetGetFlipAddressTheRightLane) {
  BatchBitVec m(5);
  m.set(3, 17, true);
  EXPECT_TRUE(m.get(3, 17));
  EXPECT_EQ(m.row(3)[0], std::uint64_t{1} << 17);
  EXPECT_FALSE(m.get(3, 16));
  EXPECT_FALSE(m.get(2, 17));
  m.flip(3, 17);
  EXPECT_FALSE(m.get(3, 17));
  m.flip(3, 63);
  EXPECT_TRUE(m.get(3, 63));
  m.set(3, 63, false);
  EXPECT_EQ(m.row(3)[0], 0u);
}

TEST(BatchBitVec, ClearAllZeroesEveryLane) {
  BatchBitVec m(8);
  Rng rng(7);
  for (std::size_t s = 0; s < m.sites(); ++s) {
    m.row(s)[0] = rng.next();
  }
  m.clear_all();
  for (std::size_t s = 0; s < m.sites(); ++s) {
    EXPECT_EQ(m.row(s)[0], 0u);
  }
}

TEST(BatchBitVec, ExtractLaneIsTheTranspose) {
  // Fill a matrix with a recognizable pattern, then check every lane's
  // extraction against the per-bit accessors.
  BatchBitVec m(40);
  Rng rng(99);
  for (std::size_t s = 0; s < m.sites(); ++s) {
    m.row(s)[0] = rng.next();
  }
  BitVec lane_bits(40);
  for (unsigned lane = 0; lane < kLanesPerWord; lane += 13) {
    m.extract_lane(lane, 0, lane_bits);
    for (std::size_t s = 0; s < m.sites(); ++s) {
      EXPECT_EQ(lane_bits.get(s), m.get(s, lane));
    }
  }
}

TEST(BatchBitVec, MultiWordRowsAddressEveryLane) {
  // Eight lane words = the full 512-lane row. Bits land in the right
  // word of the right row, and extract_lane transposes across words.
  BatchBitVec m(7, kMaxLaneWords);
  EXPECT_EQ(m.lane_words(), kMaxLaneWords);
  for (unsigned lane = 0; lane < kMaxBatchLanes; lane += 61) {
    m.set(3, lane, true);
    EXPECT_TRUE(m.get(3, lane));
    EXPECT_FALSE(m.get(2, lane));
    EXPECT_EQ(m.row(3)[lane / kLanesPerWord],
              std::uint64_t{1} << (lane % kLanesPerWord));
    m.set(3, lane, false);
    EXPECT_EQ(m.row(3)[lane / kLanesPerWord], 0u);
  }
  m.flip(6, 511);
  EXPECT_TRUE(m.get(6, 511));
  BitVec lane_bits(7);
  m.extract_lane(511, 0, lane_bits);
  EXPECT_TRUE(lane_bits.get(6));
  EXPECT_FALSE(lane_bits.get(5));
}

TEST(BatchBitVec, ReshapeRedimensionsAndZeroes) {
  BatchBitVec m(4, 2);
  m.set(3, 100, true);
  m.reshape(10, 4);
  EXPECT_EQ(m.sites(), 10u);
  EXPECT_EQ(m.lane_words(), 4u);
  for (std::size_t s = 0; s < m.sites(); ++s) {
    for (unsigned lane = 0; lane < 4 * kLanesPerWord; lane += 17) {
      EXPECT_FALSE(m.get(s, lane));
    }
  }
  // Shrinking reshape reuses capacity and still zeroes.
  m.set(9, 255, true);
  m.reshape(2, 1);
  EXPECT_EQ(m.sites(), 2u);
  EXPECT_EQ(m.row(1)[0], 0u);
}

TEST(BatchBitVec, ClearAfterShrinkingReshapeTouchesOnlyTheLiveExtent) {
  // A worker's arena keeps the largest shape it has held (aluss at 512
  // lanes) while it runs smaller ones (alush); clearing per instruction
  // must cost the live shape, not that capacity.
  BatchBitVec m(100, 8);
  m.reshape(10, 2);
  const std::size_t live = m.sites() * m.lane_words();
  for (std::size_t s = 0; s < m.sites(); ++s) {
    for (unsigned lane = 0; lane < 2 * kLanesPerWord; lane += 5) {
      m.set(s, lane, true);
    }
  }
  m.data()[live] = 0xfeed;  // spare capacity past the live rows
  m.clear_all();
  for (std::size_t s = 0; s < m.sites(); ++s) {
    EXPECT_EQ(m.row(s)[0], 0u) << "site " << s;
    EXPECT_EQ(m.row(s)[1], 0u) << "site " << s;
  }
  EXPECT_EQ(m.data()[live], 0xfeedu)
      << "clear_all() wrote past sites() x lane_words()";
}

TEST(BatchBitVec, LaneWordsForRoundsUpToAWholeRegister) {
  EXPECT_EQ(lane_words_for(1), 1u);
  EXPECT_EQ(lane_words_for(64), 1u);
  EXPECT_EQ(lane_words_for(65), 2u);
  EXPECT_EQ(lane_words_for(128), 2u);
  EXPECT_EQ(lane_words_for(129), 4u);
  EXPECT_EQ(lane_words_for(256), 4u);
  EXPECT_EQ(lane_words_for(257), 8u);
  EXPECT_EQ(lane_words_for(kMaxBatchLanes), 8u);
}

TEST(BatchBitVec, ExtractLaneHonoursOffset) {
  BatchBitVec m(10);
  m.set(4, 2, true);
  m.set(9, 2, true);
  BitVec window(6);
  m.extract_lane(2, 4, window);
  EXPECT_TRUE(window.get(0));   // site 4
  EXPECT_TRUE(window.get(5));   // site 9
  EXPECT_FALSE(window.get(1));
}

TEST(BatchLaneHelpers, BroadcastAndMask) {
  EXPECT_EQ(lane_broadcast(false), 0u);
  EXPECT_EQ(lane_broadcast(true), ~std::uint64_t{0});
  EXPECT_EQ(lane_mask_for(1), 1u);
  EXPECT_EQ(lane_mask_for(7), 0x7Fu);
  EXPECT_EQ(lane_mask_for(64), ~std::uint64_t{0});
}

}  // namespace
}  // namespace nbx
