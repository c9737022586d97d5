#include "common/bitvec.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace nbx {
namespace {

TEST(BitVec, DefaultConstructedIsEmpty) {
  BitVec v;
  EXPECT_EQ(v.size(), 0u);
  EXPECT_TRUE(v.empty());
  EXPECT_FALSE(v.any());
}

TEST(BitVec, ConstructedAllZero) {
  BitVec v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.popcount(), 0u);
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_FALSE(v.get(i)) << i;
  }
}

TEST(BitVec, SetGetFlip) {
  BitVec v(70);
  v.set(0, true);
  v.set(63, true);
  v.set(64, true);
  v.set(69, true);
  EXPECT_TRUE(v.get(0));
  EXPECT_TRUE(v.get(63));
  EXPECT_TRUE(v.get(64));
  EXPECT_TRUE(v.get(69));
  EXPECT_FALSE(v.get(1));
  EXPECT_EQ(v.popcount(), 4u);
  v.flip(63);
  EXPECT_FALSE(v.get(63));
  v.flip(63);
  EXPECT_TRUE(v.get(63));
  v.set(0, false);
  EXPECT_FALSE(v.get(0));
  EXPECT_EQ(v.popcount(), 3u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "1011001110001111";
  BitVec v = BitVec::from_string(s);
  EXPECT_EQ(v.size(), s.size());
  EXPECT_EQ(v.to_string(), s);
  // MSB-first: first char is the highest bit.
  EXPECT_TRUE(v.get(s.size() - 1));
  EXPECT_FALSE(v.get(s.size() - 2));
}

TEST(BitVec, FromStringRejectsGarbage) {
  EXPECT_THROW(BitVec::from_string("10x1"), std::invalid_argument);
}

TEST(BitVec, XorWith) {
  BitVec a = BitVec::from_string("1100");
  BitVec b = BitVec::from_string("1010");
  a.xor_with(b);
  EXPECT_EQ(a.to_string(), "0110");
  // XOR with itself clears.
  BitVec c = b;
  c.xor_with(b);
  EXPECT_EQ(c.popcount(), 0u);
}

TEST(BitVec, XorIsInvolution) {
  Rng rng(1);
  BitVec v(257);
  BitVec mask(257);
  for (int i = 0; i < 50; ++i) {
    v.flip(static_cast<std::size_t>(rng.below(257)));
    mask.flip(static_cast<std::size_t>(rng.below(257)));
  }
  const BitVec original = v;
  v.xor_with(mask);
  v.xor_with(mask);
  EXPECT_EQ(v, original);
}

TEST(BitVec, ClearAllAndAny) {
  BitVec v(100);
  EXPECT_FALSE(v.any());
  v.set(99, true);
  EXPECT_TRUE(v.any());
  v.clear_all();
  EXPECT_FALSE(v.any());
  EXPECT_EQ(v.size(), 100u);
}

TEST(BitVec, AnyInSeesExactlyItsRange) {
  // One set bit against every window of a 200-bit vector whose ends lie
  // near word boundaries, and every window of a 70-bit one.
  for (const std::size_t bit : {0u, 63u, 64u, 127u, 130u, 199u}) {
    BitVec v(200);
    v.set(bit, true);
    for (std::size_t lo = 0; lo <= 200; ++lo) {
      for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 130u}) {
        if (lo + n > 200) {
          continue;
        }
        EXPECT_EQ(v.any_in(lo, n), bit >= lo && bit < lo + n)
            << "bit " << bit << " window [" << lo << ", " << lo + n << ")";
      }
    }
  }
  BitVec w(70);
  w.set(69, true);
  for (std::size_t lo = 0; lo <= 70; ++lo) {
    for (std::size_t n = 0; lo + n <= 70; ++n) {
      EXPECT_EQ(w.any_in(lo, n), lo + n == 70 && n > 0);
    }
  }
}

TEST(BitVec, ExtractDeposit) {
  BitVec v(100);
  v.deposit(3, 16, 0xBEEF);
  EXPECT_EQ(v.extract(3, 16), 0xBEEFu);
  EXPECT_FALSE(v.get(2));
  EXPECT_FALSE(v.get(19));
  // Crossing a word boundary.
  v.deposit(60, 8, 0xA5);
  EXPECT_EQ(v.extract(60, 8), 0xA5u);
  // Deposit truncates to n bits.
  v.deposit(0, 3, 0xFF);
  EXPECT_EQ(v.extract(0, 3), 7u);
}

TEST(BitVec, EqualityComparesSizeAndBits) {
  BitVec a(10);
  BitVec b(10);
  BitVec c(11);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
  b.set(5, true);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, PopcountAcrossWords) {
  BitVec v(192);
  for (std::size_t i = 0; i < 192; i += 3) {
    v.set(i, true);
  }
  EXPECT_EQ(v.popcount(), 64u);
}

}  // namespace
}  // namespace nbx
