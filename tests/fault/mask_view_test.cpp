#include "fault/mask_view.hpp"

#include <gtest/gtest.h>

namespace nbx {
namespace {

TEST(MaskView, NullViewIsAllZero) {
  MaskView v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_FALSE(v.get(0));
  EXPECT_FALSE(v.get(1000));
  EXPECT_EQ(v.popcount(), 0u);
  EXPECT_FALSE(v.any());
}

TEST(MaskView, WindowsIntoBitVec) {
  BitVec bits(20);
  bits.set(5, true);
  bits.set(10, true);
  bits.set(19, true);
  const MaskView v(bits, 5, 10);  // bits [5, 15)
  EXPECT_FALSE(v.is_null());
  EXPECT_EQ(v.size(), 10u);
  EXPECT_TRUE(v.get(0));   // bit 5
  EXPECT_TRUE(v.get(5));   // bit 10
  EXPECT_FALSE(v.get(9));  // bit 14
  EXPECT_EQ(v.popcount(), 2u);
  EXPECT_TRUE(v.any());
  EXPECT_FALSE(MaskView(bits, 11, 8).any());  // bits [11, 19)
}

TEST(MaskView, SubviewComposition) {
  BitVec bits(32);
  bits.set(12, true);
  const MaskView outer(bits, 8, 16);     // [8, 24)
  const MaskView inner = outer.subview(2, 8);  // [10, 18)
  EXPECT_TRUE(inner.get(2));  // bit 12
  EXPECT_EQ(inner.popcount(), 1u);
}

TEST(MaskView, SubviewOfNullIsNull) {
  MaskView v;
  const MaskView sub = v.subview(3, 7);
  EXPECT_TRUE(sub.is_null());
  EXPECT_FALSE(sub.get(0));
}

TEST(MaskView, FullWindowEqualsBitVec) {
  BitVec bits(12);
  bits.set(0, true);
  bits.set(11, true);
  const MaskView v(bits, 0, 12);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(v.get(i), bits.get(i));
  }
}

}  // namespace
}  // namespace nbx
