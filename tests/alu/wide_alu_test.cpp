#include "alu/wide_alu.hpp"

#include <gtest/gtest.h>

#include "alu/lut_core_alu.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "obs/counters.hpp"

namespace nbx {
namespace {

class WideAluWidths : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WideAluWidths, FaultFreeMatchesGolden) {
  const std::size_t w = GetParam();
  const WideLutAlu alu(w, LutCoding::kNone);
  EXPECT_EQ(alu.fault_sites(), w * 4 * 16);
  Rng rng(w);
  for (const Opcode op : kAllOpcodes) {
    for (int t = 0; t < 300; ++t) {
      const auto a = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
      const auto b = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
      ASSERT_EQ(alu.eval(op, a, b, MaskView{}), alu.golden(op, a, b))
          << "w=" << w << " " << opcode_name(op) << " " << a << "," << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, WideAluWidths,
                         ::testing::Values(1, 2, 4, 8, 16, 24, 32));

TEST(WideLutAlu, EightBitMatchesTable2Decomposition) {
  EXPECT_EQ(WideLutAlu(8, LutCoding::kNone).fault_sites(), 512u);
  EXPECT_EQ(WideLutAlu(8, LutCoding::kHamming).fault_sites(), 672u);
  EXPECT_EQ(WideLutAlu(8, LutCoding::kTmr).fault_sites(), 1536u);
}

TEST(WideLutAlu, AddWrapsAtEveryWidth) {
  for (const std::size_t w : {4u, 8u, 16u, 32u}) {
    const WideLutAlu alu(w, LutCoding::kNone);
    const std::uint32_t max = alu.value_mask();
    EXPECT_EQ(alu.eval(Opcode::kAdd, max, 1, MaskView{}), 0u) << w;
    EXPECT_EQ(alu.eval(Opcode::kAdd, max, max, MaskView{}), max - 1) << w;
  }
}

TEST(WideLutAlu, CarryRipplesThroughThirtyTwoBits) {
  const WideLutAlu alu(32, LutCoding::kTmr);
  EXPECT_EQ(alu.eval(Opcode::kAdd, 0xFFFFFFFFu, 1, MaskView{}), 0u);
  EXPECT_EQ(alu.eval(Opcode::kAdd, 0x7FFFFFFFu, 1, MaskView{}),
            0x80000000u);
}

TEST(WideLutAlu, TmrMasksSingleFaultsAtAnyWidth) {
  for (const std::size_t w : {4u, 16u}) {
    const WideLutAlu alu(w, LutCoding::kTmr);
    for (std::size_t site = 0; site < alu.fault_sites(); site += 11) {
      BitVec mask(alu.fault_sites());
      mask.set(site, true);
      const std::uint32_t a = 0xA5A5A5A5u & alu.value_mask();
      const std::uint32_t b = 0x0F0F0F0Fu & alu.value_mask();
      EXPECT_EQ(alu.eval(Opcode::kXor, a, b, MaskView(mask, 0, mask.size())),
                alu.golden(Opcode::kXor, a, b))
          << "w=" << w << " site " << site;
    }
  }
}

TEST(WideLutAlu, EightBitsMatchTheCatalogueCoreUnderFaults) {
  // At W = 8 the analysis datapath is LutCoreAlu's: under the same mask
  // every result and every anatomy counter must agree, bit for bit.
  for (const LutCoding c :
       {LutCoding::kNone, LutCoding::kHamming, LutCoding::kHammingIdeal,
        LutCoding::kTmr, LutCoding::kTmrInterleaved, LutCoding::kHsiao,
        LutCoding::kReedSolomon}) {
    const WideLutAlu wide(8, c);
    const LutCoreAlu core(c);
    ASSERT_EQ(wide.fault_sites(), core.fault_sites());
    for (const double percent : {2.0, 25.0}) {
      const std::string at =
          std::string(lut_coding_suffix(c)) + " @ " + std::to_string(percent);
      const MaskGenerator gen(core.fault_sites(), percent);
      Rng rng(static_cast<std::uint64_t>(c) * 100 +
              static_cast<std::uint64_t>(percent));
      obs::Counters wide_sink;
      obs::Counters core_sink;
      int wrong = 0;
      for (int t = 0; t < 400; ++t) {
        const Opcode op = kAllOpcodes[rng.below(4)];
        const auto a = static_cast<std::uint8_t>(rng.next());
        const auto b = static_cast<std::uint8_t>(rng.next());
        const BitVec mask = gen.generate(rng);
        const MaskView view(mask, 0, mask.size());
        const std::uint8_t expect = core.eval(op, a, b, view, &core_sink);
        ASSERT_EQ(wide.eval(op, a, b, view, &wide_sink), expect)
            << at << " trial " << t;
        wrong += expect != golden_alu(op, a, b) ? 1 : 0;
      }
      EXPECT_TRUE(wide_sink == core_sink)
          << at << "\n  wide " << obs::counters_json(wide_sink)
          << "\n  core " << obs::counters_json(core_sink);
      if (percent == 25.0) {
        EXPECT_GT(wrong, 0) << at << ": the masks must reach the result";
      }
    }
  }
}

TEST(WideLutAlu, ReliabilityFallsWithWidthAtFixedFaultFraction) {
  // The scaling insight bench_width elaborates: at the same per-site
  // fault percentage, wider words expose more sites per instruction and
  // are wrong more often.
  Rng rng(7);
  auto accuracy = [&](std::size_t w) {
    const WideLutAlu alu(w, LutCoding::kTmr);
    const MaskGenerator gen(alu.fault_sites(), 5.0);
    int correct = 0;
    const int n = 400;
    for (int i = 0; i < n; ++i) {
      const auto a = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
      const auto b = static_cast<std::uint32_t>(rng.next()) & alu.value_mask();
      const BitVec mask = gen.generate(rng);
      if (alu.eval(Opcode::kAdd, a, b, MaskView(mask, 0, mask.size())) ==
          alu.golden(Opcode::kAdd, a, b)) {
        ++correct;
      }
    }
    return static_cast<double>(correct) / n;
  };
  const double narrow = accuracy(4);
  const double wide = accuracy(32);
  EXPECT_GT(narrow, wide + 0.1);
}

}  // namespace
}  // namespace nbx
