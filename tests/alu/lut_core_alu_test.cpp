#include "alu/lut_core_alu.hpp"

#include <gtest/gtest.h>

#include "common/types.hpp"
#include "obs/counters.hpp"

namespace nbx {
namespace {

class LutCoreAluCodings : public ::testing::TestWithParam<LutCoding> {};

TEST_P(LutCoreAluCodings, FaultFreeMatchesGoldenExhaustively) {
  const LutCoreAlu alu(GetParam());
  for (const Opcode op : kAllOpcodes) {
    for (int a = 0; a < 256; ++a) {
      for (int b = 0; b < 256; b += 5) {  // dense sweep, bounded runtime
        const auto x = static_cast<std::uint8_t>(a);
        const auto y = static_cast<std::uint8_t>(b);
        ASSERT_EQ(alu.eval(op, x, y, MaskView{}, nullptr),
                  golden_alu(op, x, y))
            << opcode_name(op) << " " << a << "," << b;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codings, LutCoreAluCodings,
                         ::testing::Values(LutCoding::kNone,
                                           LutCoding::kHamming,
                                           LutCoding::kTmr,
                                           LutCoding::kHsiao));

TEST(LutCoreAlu, SiteCountsMatchTable2) {
  EXPECT_EQ(LutCoreAlu(LutCoding::kNone).fault_sites(), 512u);     // alunn
  EXPECT_EQ(LutCoreAlu(LutCoding::kHamming).fault_sites(), 672u);  // alunh
  EXPECT_EQ(LutCoreAlu(LutCoding::kTmr).fault_sites(), 1536u);     // aluns
}

TEST(LutCoreAlu, AddCarryChainExhaustiveOnBoundaries) {
  const LutCoreAlu alu(LutCoding::kNone);
  // Carries rippling across every slice.
  for (const auto& [a, b] : std::vector<std::pair<int, int>>{
           {0xFF, 0x01}, {0x0F, 0x01}, {0x7F, 0x7F}, {0xFF, 0xFF},
           {0x80, 0x80}, {0xAA, 0x55}, {0x01, 0xFE}}) {
    EXPECT_EQ(alu.eval(Opcode::kAdd, static_cast<std::uint8_t>(a),
                       static_cast<std::uint8_t>(b), MaskView{}, nullptr),
              static_cast<std::uint8_t>(a + b));
  }
}

TEST(LutCoreAlu, SingleFaultOnNoCodeAluFlipsAtMostFewBits) {
  // Flipping the addressed select-LUT bit of slice 0 changes only the
  // LSB of the result for a logic op.
  const LutCoreAlu alu(LutCoding::kNone);
  const std::uint8_t a = 0xC3;
  const std::uint8_t b = 0x96;
  const std::uint8_t golden = golden_alu(Opcode::kAnd, a, b);
  int changed_runs = 0;
  for (std::size_t site = 0; site < alu.fault_sites(); ++site) {
    BitVec mask(alu.fault_sites());
    mask.set(site, true);
    const std::uint8_t r =
        alu.eval(Opcode::kAnd, a, b, MaskView(mask, 0, mask.size()), nullptr);
    if (r != golden) {
      ++changed_runs;
      // A single stored-bit fault for a logic op flips exactly one
      // output bit (no carry chain in AND).
      const std::uint8_t diff = r ^ golden;
      EXPECT_EQ(diff & (diff - 1), 0) << "site " << site;
    }
  }
  // Some sites must be able to corrupt the output (addressed bits),
  // most are not addressed by this input combination.
  EXPECT_GT(changed_runs, 0);
  EXPECT_LT(changed_runs, 64);  // at most a few per slice
}

TEST(LutCoreAlu, TmrAluMasksAnySingleStoredBitFault) {
  const LutCoreAlu alu(LutCoding::kTmr);
  const std::uint8_t a = 0x3C;
  const std::uint8_t b = 0x0F;
  for (const Opcode op : kAllOpcodes) {
    const std::uint8_t golden = golden_alu(op, a, b);
    for (std::size_t site = 0; site < alu.fault_sites(); site += 7) {
      BitVec mask(alu.fault_sites());
      mask.set(site, true);
      EXPECT_EQ(alu.eval(op, a, b, MaskView(mask, 0, mask.size()), nullptr),
                golden)
          << opcode_name(op) << " site " << site;
    }
  }
}

TEST(LutCoreAlu, HammingAluMasksAnySingleDataBitFault) {
  // A single fault on a *data* bit is localized by the syndrome and
  // corrected, whichever corrector model is in use. Each 21-bit LUT
  // block is [16 data | 5 check].
  const LutCoreAlu alu(LutCoding::kHamming);
  const std::uint8_t a = 0x81;
  const std::uint8_t b = 0x7E;
  for (const Opcode op : {Opcode::kXor, Opcode::kAdd}) {
    const std::uint8_t golden = golden_alu(op, a, b);
    for (std::size_t lut = 0; lut < LutCoreAlu::kLutCount; ++lut) {
      for (std::size_t bit = 0; bit < 16; bit += 3) {
        BitVec mask(alu.fault_sites());
        mask.set(lut * 21 + bit, true);
        EXPECT_EQ(
            alu.eval(op, a, b, MaskView(mask, 0, mask.size()), nullptr),
            golden)
            << opcode_name(op) << " lut " << lut << " bit " << bit;
      }
    }
  }
}

TEST(LutCoreAlu, HammingCheckBitFaultsCanFalsePositive) {
  // The paper's §5 mechanism: errors in bits never addressed by the LUT
  // inputs — the check bits — trigger the naive corrector into toggling
  // the output. At least some check-bit faults must corrupt the result.
  const LutCoreAlu alu(LutCoding::kHamming);
  const std::uint8_t a = 0x81;
  const std::uint8_t b = 0x7E;
  const std::uint8_t golden = golden_alu(Opcode::kXor, a, b);
  int corrupted = 0;
  for (std::size_t lut = 0; lut < LutCoreAlu::kLutCount; ++lut) {
    for (std::size_t check = 16; check < 21; ++check) {
      BitVec mask(alu.fault_sites());
      mask.set(lut * 21 + check, true);
      if (alu.eval(Opcode::kXor, a, b, MaskView(mask, 0, mask.size()),
                   nullptr) != golden) {
        ++corrupted;
      }
    }
  }
  EXPECT_GT(corrupted, 0);
}

TEST(LutCoreAlu, IdealHammingMasksAnySingleStoredBitFault) {
  // The ablation decoder: single faults anywhere — data or check bits —
  // never corrupt the output.
  const LutCoreAlu alu(LutCoding::kHammingIdeal);
  const std::uint8_t a = 0x81;
  const std::uint8_t b = 0x7E;
  for (const Opcode op : {Opcode::kXor, Opcode::kAdd}) {
    const std::uint8_t golden = golden_alu(op, a, b);
    for (std::size_t site = 0; site < alu.fault_sites(); site += 5) {
      BitVec mask(alu.fault_sites());
      mask.set(site, true);
      EXPECT_EQ(alu.eval(op, a, b, MaskView(mask, 0, mask.size()), nullptr),
                golden)
          << opcode_name(op) << " site " << site;
    }
  }
}

TEST(LutCoreAlu, StatsAreAccumulated) {
  const LutCoreAlu alu(LutCoding::kTmr);
  obs::Counters sink;
  (void)alu.eval(Opcode::kAdd, 1, 2, MaskView{}, &sink);
  // 4 LUT reads per slice x 8 slices.
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).reads, 32u);
}

TEST(LutCoreAlu, FullyCorruptedSelectLutsInvertTheResult) {
  // Flipping every stored bit of each slice's output-select LUT (all
  // three TMR copies) inverts exactly the final mux stage, so the result
  // is the bitwise complement of golden. (Flipping *every* LUT in the
  // ALU instead cancels out — the select stage re-inverts the inverted
  // logic stage — which is why this test targets one stage.)
  const LutCoreAlu alu(LutCoding::kTmr);
  BitVec mask(alu.fault_sites());
  const std::size_t per_lut = 48;   // TMR: 3 x 16 bits
  const std::size_t per_slice = 4 * per_lut;
  for (std::size_t slice = 0; slice < 8; ++slice) {
    const std::size_t o_lut_offset = slice * per_slice + 3 * per_lut;
    for (std::size_t i = 0; i < per_lut; ++i) {
      mask.set(o_lut_offset + i, true);
    }
  }
  const std::uint8_t r =
      alu.eval(Opcode::kAnd, 0xF0, 0xFF, MaskView(mask, 0, mask.size()),
               nullptr);
  EXPECT_EQ(r, static_cast<std::uint8_t>(~golden_alu(Opcode::kAnd, 0xF0,
                                                     0xFF)));
}

}  // namespace
}  // namespace nbx
