#include "alu/voter.hpp"

#include <gtest/gtest.h>

#include "obs/counters.hpp"

namespace nbx {
namespace {

TEST(LutVoter, SiteCountsCompleteTable2Arithmetic) {
  // 9 LUTs x {16, 21, 48} bits: the voter contributions that make
  // alusn=1680, alush=2205, aluss=5040 work out exactly.
  EXPECT_EQ(LutVoter(LutCoding::kNone).fault_sites(), 144u);
  EXPECT_EQ(LutVoter(LutCoding::kHamming).fault_sites(), 189u);
  EXPECT_EQ(LutVoter(LutCoding::kTmr).fault_sites(), 432u);
}

TEST(CmosVoter, SiteCountMatches) {
  // 8 bits x 10 nodes + 1 global OR = 81 (aluscmos = 3*192 + 81 = 657).
  EXPECT_EQ(CmosVoter().fault_sites(), 81u);
}

class VoterParam : public ::testing::Test {
 protected:
  LutVoter lut_voter_{LutCoding::kNone};
  CmosVoter cmos_voter_;
};

TEST_F(VoterParam, UnanimousInputsPassThrough) {
  for (const std::uint8_t v : {0x00, 0xFF, 0x5A, 0xA5, 0x01, 0x80}) {
    const VoteInput in{v, v, v, true, true, true};
    const VoteOutput lo = lut_voter_.vote(in, MaskView{}, nullptr);
    EXPECT_EQ(lo.value, v);
    EXPECT_TRUE(lo.valid);
    EXPECT_FALSE(lo.disagreement);
    const VoteOutput co = cmos_voter_.vote(in, MaskView{}, nullptr);
    EXPECT_EQ(co.value, v);
    EXPECT_FALSE(co.disagreement);
  }
}

TEST_F(VoterParam, SingleDeviantReplicaIsOutvoted) {
  const std::uint8_t truth = 0x3C;
  for (int flip = 0; flip < 8; ++flip) {
    const auto bad = static_cast<std::uint8_t>(truth ^ (1u << flip));
    for (int pos = 0; pos < 3; ++pos) {
      VoteInput in{truth, truth, truth, true, true, true};
      (pos == 0 ? in.x : pos == 1 ? in.y : in.z) = bad;
      const VoteOutput lo = lut_voter_.vote(in, MaskView{}, nullptr);
      EXPECT_EQ(lo.value, truth);
      EXPECT_TRUE(lo.disagreement);
      const VoteOutput co = cmos_voter_.vote(in, MaskView{}, nullptr);
      EXPECT_EQ(co.value, truth);
      EXPECT_TRUE(co.disagreement);
    }
  }
}

TEST_F(VoterParam, CompletelyDivergentReplicasVoteBitwise) {
  const VoteInput in{0x0F, 0x33, 0x55, true, true, true};
  // Bitwise majority of 00001111 / 00110011 / 01010101 = 00010111.
  EXPECT_EQ(lut_voter_.vote(in, MaskView{}, nullptr).value, 0x17);
  EXPECT_EQ(cmos_voter_.vote(in, MaskView{}, nullptr).value, 0x17);
}

TEST(LutVoter, ValidFlagIsMajorityVoted) {
  const LutVoter voter(LutCoding::kNone);
  VoteInput in{1, 1, 1, true, true, false};
  EXPECT_TRUE(voter.vote(in, MaskView{}, nullptr).valid);
  in.vy = false;
  EXPECT_FALSE(voter.vote(in, MaskView{}, nullptr).valid);
}

TEST(LutVoter, FaultOnAddressedMajorityBitCorruptsVote) {
  // Faulting the no-code voter's addressed majority-LUT bit flips that
  // output bit: the paper's reason module redundancy saturates — the
  // voter is as vulnerable as what it guards.
  const LutVoter voter(LutCoding::kNone);
  const VoteInput in{0xFF, 0xFF, 0xFF, true, true, true};
  // Bit 0 majority LUT is LUT 0 (sites [0,16)); inputs x=y=z=1 -> addr 7.
  BitVec mask(voter.fault_sites());
  mask.set(7, true);
  const VoteOutput out = voter.vote(in, MaskView(mask, 0, mask.size()),
                                    nullptr);
  EXPECT_EQ(out.value, 0xFE);
}

TEST(LutVoter, TmrCodedVoterMasksSingleFault) {
  const LutVoter voter(LutCoding::kTmr);
  const VoteInput in{0xFF, 0xFF, 0xFF, true, true, true};
  for (std::size_t site = 0; site < voter.fault_sites(); site += 3) {
    BitVec mask(voter.fault_sites());
    mask.set(site, true);
    EXPECT_EQ(voter.vote(in, MaskView(mask, 0, mask.size()), nullptr).value,
              0xFF)
        << site;
  }
}

TEST(CmosVoter, ErrorLineFaultCanFalselyReportDisagreement) {
  const CmosVoter voter;
  const VoteInput in{0x42, 0x42, 0x42, true, true, true};
  // The final node is the global OR error line.
  BitVec mask(voter.fault_sites());
  mask.set(voter.fault_sites() - 1, true);
  const VoteOutput out =
      voter.vote(in, MaskView(mask, 0, mask.size()), nullptr);
  EXPECT_EQ(out.value, 0x42);       // data path untouched
  EXPECT_TRUE(out.disagreement);    // spurious error report
}

TEST(VoterStats, DisagreementsCounted) {
  const LutVoter voter(LutCoding::kNone);
  obs::Counters sink;
  (void)voter.vote({1, 1, 1, true, true, true}, MaskView{}, &sink);
  EXPECT_EQ(sink.module_level.votes, 1u);
  EXPECT_EQ(sink.module_level.copies_outvoted, 0u);
  (void)voter.vote({1, 1, 2, true, true, true}, MaskView{}, &sink);
  EXPECT_EQ(sink.module_level.votes, 2u);
  EXPECT_EQ(sink.module_level.copies_outvoted, 1u);
  EXPECT_EQ(sink.module_level.voter_self_faults, 0u);
}

}  // namespace
}  // namespace nbx
