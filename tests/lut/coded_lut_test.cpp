#include "lut/coded_lut.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "lut/truth_table.hpp"
#include "obs/counters.hpp"

namespace nbx {
namespace {

BitVec random_tt(int k, std::uint64_t seed) {
  Rng rng(seed);
  return build_truth_table(
      k, [&](std::uint32_t) { return rng.bernoulli(0.5); });
}

TEST(CodedLut, SiteCountsMatchTable2Decomposition) {
  // A 16-bit (4-input) LUT: the building block of every NanoBox ALU.
  EXPECT_EQ(coded_lut_sites(16, LutCoding::kNone), 16u);
  EXPECT_EQ(coded_lut_sites(16, LutCoding::kHamming), 21u);
  EXPECT_EQ(coded_lut_sites(16, LutCoding::kTmr), 48u);
  EXPECT_EQ(coded_lut_sites(16, LutCoding::kHsiao), 22u);
}

class CodedLutAllCodings : public ::testing::TestWithParam<LutCoding> {};

TEST_P(CodedLutAllCodings, FaultFreeReadsMatchTruthTable) {
  const BitVec tt = random_tt(4, 11);
  const CodedLut lut(BitVec(tt), GetParam());
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(lut.read(a, MaskView{}), tt.get(a)) << a;
  }
}

TEST_P(CodedLutAllCodings, NullAndZeroMaskAgree) {
  const BitVec tt = random_tt(4, 12);
  const CodedLut lut(BitVec(tt), GetParam());
  const BitVec zeros(lut.fault_sites());
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(lut.read(a, MaskView{}),
              lut.read(a, MaskView(zeros, 0, zeros.size())));
  }
}

INSTANTIATE_TEST_SUITE_P(Codings, CodedLutAllCodings,
                         ::testing::Values(LutCoding::kNone,
                                           LutCoding::kHamming,
                                           LutCoding::kHammingIdeal,
                                           LutCoding::kTmr,
                                           LutCoding::kHsiao));

TEST(CodedLut, NoCodeExposesExactlyTheAddressedBit) {
  const BitVec tt = random_tt(4, 13);
  const CodedLut lut(BitVec(tt), LutCoding::kNone);
  for (std::uint32_t addr = 0; addr < 16; ++addr) {
    for (std::size_t flip = 0; flip < 16; ++flip) {
      BitVec mask(lut.fault_sites());
      mask.set(flip, true);
      const bool v = lut.read(addr, MaskView(mask, 0, mask.size()));
      if (flip == addr) {
        EXPECT_EQ(v, !tt.get(addr));  // the one visible fault
      } else {
        EXPECT_EQ(v, tt.get(addr));  // faults elsewhere are invisible
      }
    }
  }
}

TEST(CodedLut, TmrMasksAnySingleCopyFault) {
  const BitVec tt = random_tt(4, 14);
  const CodedLut lut(BitVec(tt), LutCoding::kTmr);
  // A single fault anywhere in the 48 stored bits never changes any read.
  for (std::size_t flip = 0; flip < 48; ++flip) {
    BitVec mask(48);
    mask.set(flip, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 48)), tt.get(addr));
    }
  }
}

TEST(CodedLut, TmrTwoCopiesOfSameBitOverrule) {
  const BitVec tt = random_tt(4, 15);
  const CodedLut lut(BitVec(tt), LutCoding::kTmr);
  const std::uint32_t addr = 5;
  BitVec mask(48);
  mask.set(addr, true);        // copy 0
  mask.set(16 + addr, true);   // copy 1
  obs::Counters sink;
  std::uint64_t disagreements = 0;
  EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 48), &sink, &disagreements),
            !tt.get(addr));
  EXPECT_EQ(disagreements, 1u);
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).miscorrected, 1u);
}

TEST(CodedLut, TmrDisagreementCountedButMasked) {
  const BitVec tt = random_tt(4, 16);
  const CodedLut lut(BitVec(tt), LutCoding::kTmr);
  BitVec mask(48);
  mask.set(3, true);  // single copy of addr 3
  obs::Counters sink;
  std::uint64_t disagreements = 0;
  EXPECT_EQ(lut.read(3, MaskView(mask, 0, 48), &sink, &disagreements),
            tt.get(3));
  EXPECT_EQ(disagreements, 1u);
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).reads, 1u);
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).corrected, 1u);
}

TEST(CodedLut, TmrThreeFlippedCopiesAgreeOnTheWrongBit) {
  // The disagreement count is the hardware's detector, not the anatomy:
  // when every copy of the addressed entry flips, the copies agree, the
  // vote returns the wrong bit, and the detector stays silent. Only the
  // golden-aware anatomy sees it, as a miscorrection.
  const BitVec tt = random_tt(4, 21);
  for (const LutCoding coding :
       {LutCoding::kTmr, LutCoding::kTmrInterleaved}) {
    const CodedLut lut(BitVec(tt), coding);
    const std::uint32_t addr = 9;
    const std::size_t copies[3] = {
        coding == LutCoding::kTmr ? addr : addr * 3,
        coding == LutCoding::kTmr ? 16 + addr : addr * 3 + 1,
        coding == LutCoding::kTmr ? 32 + addr : addr * 3 + 2};
    BitVec mask(48);
    for (const std::size_t site : copies) {
      mask.set(site, true);
    }
    obs::Counters sink;
    std::uint64_t disagreements = 0;
    EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 48), &sink, &disagreements),
              !tt.get(addr))
        << lut_coding_suffix(coding);
    EXPECT_EQ(disagreements, 0u) << lut_coding_suffix(coding);
    const obs::CodeLayerCounters& tmr = sink.at(obs::CodeLayer::kTmr);
    EXPECT_EQ(tmr.reads, 1u) << lut_coding_suffix(coding);
    EXPECT_EQ(tmr.miscorrected, 1u) << lut_coding_suffix(coding);
  }
}

TEST(CodedLut, HammingCorrectsSingleDataBitFaults) {
  const BitVec tt = random_tt(4, 17);
  const CodedLut lut(BitVec(tt), LutCoding::kHamming);
  for (std::size_t flip = 0; flip < 16; ++flip) {  // data bits only
    BitVec mask(lut.fault_sites());
    mask.set(flip, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, mask.size())), tt.get(addr))
          << "flip " << flip << " addr " << addr;
    }
  }
}

TEST(CodedLut, HammingCheckBitFaultFalsePositive) {
  // The paper's corrector as evaluated: a flipped check bit (a bit never
  // addressed by the LUT inputs) yields a syndrome the corrector cannot
  // localize to a data bit; it toggles the output whenever the failing
  // check group covers the addressed position. So exactly the addressed
  // positions covered by that check group read back wrong.
  const BitVec tt = random_tt(4, 17);
  const CodedLut lut(BitVec(tt), LutCoding::kHamming);
  int false_positives = 0;
  for (std::size_t check = 16; check < lut.fault_sites(); ++check) {
    BitVec mask(lut.fault_sites());
    mask.set(check, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      if (lut.read(addr, MaskView(mask, 0, mask.size())) != tt.get(addr)) {
        ++false_positives;
      }
    }
  }
  // Every check bit covers roughly half the data positions.
  EXPECT_GT(false_positives, 16);
  EXPECT_LT(false_positives, 5 * 16);
}

TEST(CodedLut, IdealHammingCorrectsSingleFaultAnywhere) {
  // The ablation decoder restores textbook SEC behaviour: any single
  // stored-bit fault — data or check — is masked.
  const BitVec tt = random_tt(4, 17);
  const CodedLut lut(BitVec(tt), LutCoding::kHammingIdeal);
  EXPECT_EQ(lut.fault_sites(), 21u);
  for (std::size_t flip = 0; flip < lut.fault_sites(); ++flip) {
    BitVec mask(lut.fault_sites());
    mask.set(flip, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, mask.size())), tt.get(addr))
          << "flip " << flip << " addr " << addr;
    }
  }
}

TEST(CodedLut, HammingStatsCountCorrections) {
  const BitVec tt = random_tt(4, 18);
  const CodedLut lut(BitVec(tt), LutCoding::kHamming);
  BitVec mask(lut.fault_sites());
  mask.set(7, true);
  obs::Counters sink;
  (void)lut.read(0, MaskView(mask, 0, mask.size()), &sink);
  EXPECT_EQ(sink.at(obs::CodeLayer::kHamming).reads, 1u);
  EXPECT_EQ(sink.at(obs::CodeLayer::kHamming).corrected, 1u);
}

TEST(CodedLut, HammingDoubleFaultCanCorruptUnfaultedAddressedBit) {
  // The paper's key mechanism (§5): "false positives caused by errors in
  // bits which are not addressed by the lookup table inputs". With two
  // faults on NON-addressed bits, the SEC decoder can miscorrect the
  // addressed bit. Verify at least one such pair exists.
  const BitVec tt = random_tt(4, 19);
  const CodedLut lut(BitVec(tt), LutCoding::kHamming);
  const std::uint32_t addr = 0;
  bool found_miscorrection = false;
  for (std::size_t i = 1; i < 16 && !found_miscorrection; ++i) {
    for (std::size_t j = i + 1; j < 16 && !found_miscorrection; ++j) {
      BitVec mask(lut.fault_sites());
      mask.set(i, true);
      mask.set(j, true);
      if (lut.read(addr, MaskView(mask, 0, mask.size())) != tt.get(addr)) {
        found_miscorrection = true;
      }
    }
  }
  EXPECT_TRUE(found_miscorrection)
      << "SEC miscorrection mechanism missing — alunh would not degrade";
}

TEST(CodedLut, HsiaoRefusesToMiscorrectDoubleFaults) {
  // The extension's selling point: double faults on non-addressed bits
  // never corrupt the addressed bit (errors stay where they landed).
  const BitVec tt = random_tt(4, 20);
  const CodedLut lut(BitVec(tt), LutCoding::kHsiao);
  const std::uint32_t addr = 0;
  for (std::size_t i = 1; i < 16; ++i) {
    for (std::size_t j = i + 1; j < 16; ++j) {
      BitVec mask(lut.fault_sites());
      mask.set(i, true);
      mask.set(j, true);
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, mask.size())), tt.get(addr))
          << i << "," << j;
    }
  }
}

TEST(CodedLut, InterleavedTmrSameFunctionDifferentLayout) {
  const BitVec tt = random_tt(4, 21);
  const CodedLut blocked(BitVec(tt), LutCoding::kTmr);
  const CodedLut interleaved(BitVec(tt), LutCoding::kTmrInterleaved);
  EXPECT_EQ(blocked.fault_sites(), interleaved.fault_sites());
  // Fault-free reads agree; the stored-bit layouts differ.
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(blocked.read(a, MaskView{}), interleaved.read(a, MaskView{}));
  }
  EXPECT_FALSE(blocked.stored_bits() == interleaved.stored_bits());
  // Interleaved layout: sites 3a..3a+2 are the three copies of entry a.
  for (std::uint32_t a = 0; a < 16; ++a) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_EQ(interleaved.stored_bits().get(3 * a + c), tt.get(a));
    }
  }
}

TEST(CodedLut, InterleavedTmrMasksSingleFaults) {
  const BitVec tt = random_tt(4, 22);
  const CodedLut lut(BitVec(tt), LutCoding::kTmrInterleaved);
  for (std::size_t flip = 0; flip < 48; ++flip) {
    BitVec mask(48);
    mask.set(flip, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 48)), tt.get(addr));
    }
  }
}

TEST(CodedLut, InterleavedTmrDiesToAlignedBurstBlockedSurvives) {
  // A 3-long burst at sites [3a, 3a+3) wipes all three copies of entry a
  // in the interleaved layout; the blocked layout shrugs it off (it hits
  // three different entries of copy 0).
  const BitVec tt = random_tt(4, 23);
  const CodedLut blocked(BitVec(tt), LutCoding::kTmr);
  const CodedLut interleaved(BitVec(tt), LutCoding::kTmrInterleaved);
  const std::uint32_t addr = 5;
  BitVec mask(48);
  mask.set(3 * addr + 0, true);
  mask.set(3 * addr + 1, true);
  mask.set(3 * addr + 2, true);
  EXPECT_EQ(interleaved.read(addr, MaskView(mask, 0, 48)), !tt.get(addr));
  for (std::uint32_t a = 0; a < 16; ++a) {
    EXPECT_EQ(blocked.read(a, MaskView(mask, 0, 48)), tt.get(a)) << a;
  }
}

TEST(CodedLut, ReedSolomonSiteCountAndSingleSymbolCorrection) {
  const BitVec tt = random_tt(4, 31);
  const CodedLut lut(BitVec(tt), LutCoding::kReedSolomon);
  EXPECT_EQ(lut.fault_sites(), 24u);
  // Any burst confined to one 4-bit symbol is fully masked.
  for (std::size_t symbol = 0; symbol < 6; ++symbol) {
    BitVec mask(24);
    for (std::size_t b = 0; b < 4; ++b) {
      mask.set(symbol * 4 + b, true);
    }
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 24), nullptr), tt.get(addr))
          << "symbol " << symbol << " addr " << addr;
    }
  }
}

TEST(CodedLut, ReedSolomonSingleBitFaultsMaskedEverywhere) {
  const BitVec tt = random_tt(4, 32);
  const CodedLut lut(BitVec(tt), LutCoding::kReedSolomon);
  for (std::size_t flip = 0; flip < 24; ++flip) {
    BitVec mask(24);
    mask.set(flip, true);
    for (std::uint32_t addr = 0; addr < 16; ++addr) {
      EXPECT_EQ(lut.read(addr, MaskView(mask, 0, 24)), tt.get(addr));
    }
  }
}

TEST(CodedLut, ReedSolomonCrossSymbolFaultsCanEscape) {
  // Two faults in different symbols exceed the correction radius.
  const BitVec tt = random_tt(4, 33);
  const CodedLut lut(BitVec(tt), LutCoding::kReedSolomon);
  int corrupted = 0;
  for (std::uint32_t addr = 0; addr < 16; ++addr) {
    BitVec mask(24);
    mask.set(addr, true);          // fault in the addressed bit's symbol
    mask.set((addr + 4) % 16, true);  // and in another symbol
    if (lut.read(addr, MaskView(mask, 0, 24)) != tt.get(addr)) {
      ++corrupted;
    }
  }
  EXPECT_GT(corrupted, 0);
}

TEST(CodedLut, CodingSuffixes) {
  EXPECT_EQ(lut_coding_suffix(LutCoding::kNone), "n");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kHamming), "h");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kTmr), "s");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kTmrInterleaved), "si");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kHammingIdeal), "hideal");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kHsiao), "hsiao");
  EXPECT_EQ(lut_coding_suffix(LutCoding::kReedSolomon), "rs");
}

}  // namespace
}  // namespace nbx
