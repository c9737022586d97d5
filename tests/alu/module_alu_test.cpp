#include "alu/module_alu.hpp"

#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "obs/counters.hpp"

namespace nbx {
namespace {

TEST(ModuleAlu, FaultFreeComputesGoldenForAllVariants) {
  for (const AluSpec& spec : all_specs()) {
    const auto alu = make_alu(spec.name);
    ASSERT_NE(alu, nullptr) << spec.name;
    for (const Opcode op : kAllOpcodes) {
      for (int a = 0; a < 256; a += 17) {
        for (int b = 0; b < 256; b += 31) {
          const auto x = static_cast<std::uint8_t>(a);
          const auto y = static_cast<std::uint8_t>(b);
          const AluOutput out = alu->compute(op, x, y, MaskView{});
          ASSERT_EQ(out.value, golden_alu(op, x, y))
              << spec.name << " " << opcode_name(op);
          EXPECT_TRUE(out.valid);
          EXPECT_FALSE(out.disagreement);
        }
      }
    }
  }
}

// Sets every bit of the output-select LUT of each slice within one core
// replica's mask segment, which cleanly inverts that replica's result.
// (Corrupting *all* LUT stages cancels out: an inverted logic stage feeds
// an inverted select stage.)
void corrupt_replica_select_stage(BitVec& mask, std::size_t replica_offset,
                                  std::size_t per_lut) {
  const std::size_t per_slice = 4 * per_lut;
  for (std::size_t slice = 0; slice < 8; ++slice) {
    const std::size_t off = replica_offset + slice * per_slice + 3 * per_lut;
    for (std::size_t i = 0; i < per_lut; ++i) {
      mask.set(off + i, true);
    }
  }
}

TEST(SpaceRedundantAlu, MasksAFullyInvertedSingleReplica) {
  // Invert replica 1's output stage; replicas 0 and 2 outvote it.
  const auto alu = make_alu("aluss");
  const std::size_t core = 1536;  // TMR LUT core
  BitVec mask(alu->fault_sites());
  corrupt_replica_select_stage(mask, core, 48);
  obs::Counters sink;
  const AluOutput out = alu->compute(Opcode::kXor, 0x5A, 0xFF,
                                     MaskView(mask, 0, mask.size()), &sink);
  EXPECT_EQ(out.value, golden_alu(Opcode::kXor, 0x5A, 0xFF));
  EXPECT_TRUE(out.disagreement);
  EXPECT_EQ(sink.module_level.votes, 1u);
  EXPECT_EQ(sink.module_level.copies_outvoted, 1u);
}

TEST(SpaceRedundantAlu, TwoInvertedReplicasDefeatTheVoter) {
  const auto alu = make_alu("alusn");
  const std::size_t core = 512;
  BitVec mask(alu->fault_sites());
  corrupt_replica_select_stage(mask, 0, 16);
  corrupt_replica_select_stage(mask, core, 16);
  const AluOutput out = alu->compute(Opcode::kAnd, 0xF0, 0xFF,
                                     MaskView(mask, 0, mask.size()), nullptr);
  EXPECT_EQ(out.value,
            static_cast<std::uint8_t>(~golden_alu(Opcode::kAnd, 0xF0, 0xFF)));
}

TEST(TimeRedundantAlu, PassesSeeIndependentMaskSegments) {
  // Corrupting only pass 0's segment leaves passes 1 and 2 clean; the
  // vote still returns golden.
  const auto alu = make_alu("alutn");
  BitVec mask(alu->fault_sites());
  corrupt_replica_select_stage(mask, 0, 16);
  const AluOutput out = alu->compute(Opcode::kOr, 0x12, 0x34,
                                     MaskView(mask, 0, mask.size()), nullptr);
  EXPECT_EQ(out.value, golden_alu(Opcode::kOr, 0x12, 0x34));
  EXPECT_TRUE(out.disagreement);
}

TEST(TimeRedundantAlu, StorageBitFaultsCorruptStoredResults) {
  // Flip the same stored-result data bit in all three 9-bit slots: the
  // voter then votes three identically corrupted values.
  const auto alu = make_alu("alutn");
  const std::size_t core = 512;
  const std::size_t voter = 144;
  const std::size_t storage = 3 * core + voter;
  BitVec mask(alu->fault_sites());
  mask.set(storage + 0, true);       // slot 0, data bit 0
  mask.set(storage + 9, true);       // slot 1, data bit 0
  mask.set(storage + 18, true);      // slot 2, data bit 0
  const std::uint8_t golden = golden_alu(Opcode::kAnd, 0xFF, 0xFE);
  const AluOutput out = alu->compute(Opcode::kAnd, 0xFF, 0xFE,
                                     MaskView(mask, 0, mask.size()), nullptr);
  EXPECT_EQ(out.value, golden ^ 0x01);
}

TEST(TimeRedundantAlu, ValidBitFaultsVoteToInvalid) {
  const auto alu = make_alu("alutn");
  const std::size_t core = 512;
  const std::size_t voter = 144;
  const std::size_t storage = 3 * core + voter;
  BitVec mask(alu->fault_sites());
  mask.set(storage + 8, true);   // slot 0 valid bit
  mask.set(storage + 17, true);  // slot 1 valid bit
  obs::Counters sink;
  const AluOutput out = alu->compute(Opcode::kAnd, 1, 1,
                                     MaskView(mask, 0, mask.size()), &sink);
  EXPECT_FALSE(out.valid);  // two of three valid flags lost
  EXPECT_EQ(sink.module_level.storage_faults, 2u);
  EXPECT_EQ(out.value, golden_alu(Opcode::kAnd, 1, 1));  // data unaffected
}

TEST(ModuleAlu, StatsComputationsCount) {
  // One sink sees every layer of every computation: aluss votes once
  // per computation over three cores of 32 TMR LUT reads each, plus the
  // voter's nine TMR LUT reads.
  const auto alu = make_alu("aluss");
  obs::Counters sink;
  for (int i = 0; i < 5; ++i) {
    (void)alu->compute(Opcode::kAdd, 1, 2, MaskView{}, &sink);
  }
  EXPECT_EQ(sink.module_level.votes, 5u);
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).reads, 5u * (3 * 32 + 9));
  EXPECT_EQ(sink.at(obs::CodeLayer::kTmr).clean, 5u * (3 * 32 + 9));
}

TEST(ModuleAlu, RandomizedAgreementAcrossModuleLevelsWhenFaultFree) {
  // Property: all module wrappers around the same bit level compute the
  // same (golden) function.
  Rng rng(77);
  const auto n = make_alu("alunn");
  const auto t = make_alu("alutn");
  const auto s = make_alu("alusn");
  for (int i = 0; i < 500; ++i) {
    const Opcode op = kAllOpcodes[rng.below(4)];
    const auto a = static_cast<std::uint8_t>(rng.below(256));
    const auto b = static_cast<std::uint8_t>(rng.below(256));
    const std::uint8_t g = golden_alu(op, a, b);
    EXPECT_EQ(n->compute(op, a, b, MaskView{}).value, g);
    EXPECT_EQ(t->compute(op, a, b, MaskView{}).value, g);
    EXPECT_EQ(s->compute(op, a, b, MaskView{}).value, g);
  }
}

}  // namespace
}  // namespace nbx
