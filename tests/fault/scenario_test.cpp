// scenario_test.cpp — the FaultScenario generator layer in isolation:
// wear-out rate schedules, 2-D burst strike geometry, and defect-aware
// remap plans. The cross-engine bit-identity of scenarios is enforced by
// the backend-differential nbxcheck family and the scenario golden
// tests; this file pins the layer's local laws with hand-readable cases.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "fault/defect_map.hpp"
#include "fault/mask_generator.hpp"
#include "fault/remap.hpp"
#include "fault/scenario.hpp"

namespace nbx {
namespace {

// ------------------------------------------------------ rate schedules

TEST(RateSchedule, ConstantKindReturnsBaseBitwise) {
  RateSchedule s;
  s.kind = RateScheduleKind::kConstant;
  s.end_factor = 7.0;  // ignored by kConstant
  for (std::size_t t = 0; t < 10; ++t) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.at(2.0, t, 10)),
              std::bit_cast<std::uint64_t>(2.0));
  }
}

TEST(RateSchedule, UnitEndFactorIsIidEvenOnRampKinds) {
  // end_factor == 1 must return the base bitwise so the scheduled code
  // path reproduces today's i.i.d. trial seeds exactly.
  for (const RateScheduleKind kind :
       {RateScheduleKind::kLinear, RateScheduleKind::kWeibull}) {
    RateSchedule s;
    s.kind = kind;
    s.end_factor = 1.0;
    s.shape = 2.0;
    FaultScenario scenario;
    scenario.schedule = s;
    EXPECT_TRUE(scenario.is_iid());
    for (std::size_t t = 0; t < 8; ++t) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(s.at(0.5, t, 8)),
                std::bit_cast<std::uint64_t>(0.5));
    }
  }
}

TEST(RateSchedule, LinearRampAnchorsAtBaseAndHitsEndpoint) {
  RateSchedule s;
  s.kind = RateScheduleKind::kLinear;
  s.end_factor = 3.0;
  const std::size_t trials = 5;
  // Trial 0 is the base rate, bit-for-bit.
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.at(2.0, 0, trials)),
            std::bit_cast<std::uint64_t>(2.0));
  // Monotone non-decreasing toward 3x base.
  double prev = 2.0;
  for (std::size_t t = 1; t < trials; ++t) {
    const double r = s.at(2.0, t, trials);
    EXPECT_GE(r, prev);
    prev = r;
  }
  EXPECT_NEAR(s.at(2.0, trials - 1, trials), 6.0, 1e-12);
  // Midpoint of a 5-trial ramp is exactly halfway up.
  EXPECT_NEAR(s.at(2.0, 2, trials), 4.0, 1e-12);
}

TEST(RateSchedule, DecayRampIsMonotoneNonIncreasing) {
  RateSchedule s;
  s.kind = RateScheduleKind::kLinear;
  s.end_factor = 0.25;
  double prev = 8.0;
  for (std::size_t t = 0; t < 9; ++t) {
    const double r = s.at(8.0, t, 9);
    EXPECT_LE(r, prev);
    prev = r;
  }
  EXPECT_NEAR(s.at(8.0, 8, 9), 2.0, 1e-12);
}

TEST(RateSchedule, WeibullShapeBendsTheRampBetweenTheSameEndpoints) {
  RateSchedule s;
  s.kind = RateScheduleKind::kWeibull;
  s.end_factor = 3.0;
  s.shape = 3.0;  // infant-survival curve: slow start, steep tail
  const std::size_t trials = 9;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.at(2.0, 0, trials)),
            std::bit_cast<std::uint64_t>(2.0));
  EXPECT_NEAR(s.at(2.0, trials - 1, trials), 6.0, 1e-12);
  RateSchedule linear = s;
  linear.kind = RateScheduleKind::kLinear;
  // A shape > 1 ramp sits strictly below the linear ramp mid-curve.
  for (std::size_t t = 1; t + 1 < trials; ++t) {
    EXPECT_LT(s.at(2.0, t, trials), linear.at(2.0, t, trials));
  }
}

TEST(RateSchedule, RatesClampToThePercentRange) {
  RateSchedule s;
  s.kind = RateScheduleKind::kLinear;
  s.end_factor = 10.0;
  EXPECT_EQ(s.at(60.0, 9, 10), 100.0);  // 600% clamps
  s.end_factor = 0.0;
  EXPECT_EQ(s.at(60.0, 9, 10), 0.0);  // full burn-in floor
}

TEST(RateSchedule, SingleTrialSweepStaysAtBase) {
  RateSchedule s;
  s.kind = RateScheduleKind::kWeibull;
  s.end_factor = 5.0;
  s.shape = 0.5;
  EXPECT_EQ(std::bit_cast<std::uint64_t>(s.at(3.0, 0, 1)),
            std::bit_cast<std::uint64_t>(3.0));
}

// ------------------------------------------------- 2-D burst geometry

TEST(BurstGeometry, StrikeCountCoversTheNeighbourhoodArea) {
  // 100 sites at 12% -> 12 faults. A 3-wide 1-D burst needs ceil(12/3)
  // = 4 strikes; a 3x2 neighbourhood needs ceil(12/6) = 2.
  const MaskGenerator oned(100, 12.0, FaultCountPolicy::kBurst, 3);
  EXPECT_EQ(oned.strikes_per_computation(), 4u);
  const MaskGenerator twod(100, 12.0, FaultCountPolicy::kBurst, 3,
                           /*burst_rows=*/2, /*burst_row_stride=*/10);
  EXPECT_EQ(twod.strikes_per_computation(), 2u);
  // Non-burst policies and degenerate 1x1 neighbourhoods never strike.
  const MaskGenerator round(100, 12.0, FaultCountPolicy::kRoundNearest, 3);
  EXPECT_EQ(round.strikes_per_computation(), 0u);
  const MaskGenerator unit(100, 12.0, FaultCountPolicy::kBurst, 1);
  EXPECT_EQ(unit.strikes_per_computation(), 0u);
}

TEST(BurstGeometry, OneDSpecIsBitIdenticalToTheLegacyConstructor) {
  // A rows=1/stride=0 generator must consume the Rng and produce masks
  // exactly as the historical 1-D burst constructor did.
  const MaskGenerator legacy(96, 8.0, FaultCountPolicy::kBurst, 4);
  const MaskGenerator spec(96, 8.0, FaultCountPolicy::kBurst, 4,
                           /*burst_rows=*/1, /*burst_row_stride=*/0);
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    Rng a(seed);
    Rng b(seed);
    EXPECT_EQ(legacy.generate(a).to_string(), spec.generate(b).to_string())
        << "seed " << seed;
  }
}

TEST(BurstGeometry, TwoDStrikesStayInsideTheAnchoredNeighbourhood) {
  // Replay the anchors from a twin Rng and require every flipped site
  // to fall in the L-columns x R-rows window, clipped at the row edge
  // and at the end of the site space.
  const std::size_t sites = 64;
  const std::size_t stride = 8;
  const std::size_t len = 3;
  const std::size_t rows = 2;
  const MaskGenerator gen(sites, 18.75, FaultCountPolicy::kBurst, len,
                          rows, stride);
  ASSERT_EQ(gen.strikes_per_computation(), 2u);  // 12 faults / 6-site area
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    Rng draw(seed);
    Rng replay(seed);
    const BitVec mask = gen.generate(draw);
    BitVec allowed(sites);
    for (std::size_t s = 0; s < 2; ++s) {
      const auto anchor = static_cast<std::size_t>(replay.below(sites));
      const std::size_t row = anchor / stride;
      const std::size_t col = anchor % stride;
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = 0; c < len && col + c < stride; ++c) {
          const std::size_t site = (row + r) * stride + col + c;
          if (site < sites) {
            allowed.set(site, true);
          }
        }
      }
    }
    for (std::size_t i = 0; i < sites; ++i) {
      EXPECT_TRUE(!mask.get(i) || allowed.get(i))
          << "seed " << seed << ": site " << i
          << " flipped outside every strike window";
    }
  }
}

TEST(BurstGeometry, StrikeNeverWrapsIntoTheNextRow) {
  // Anchor in the last column: the run clips to one site per row
  // instead of bleeding into the next row's unrelated storage.
  const std::size_t stride = 8;
  const MaskGenerator gen(64, 100.0, FaultCountPolicy::kBurst, 4,
                          /*burst_rows=*/1, stride);
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    Rng draw(seed);
    Rng replay(seed);
    const BitVec mask = gen.generate(draw);
    // With rate 100% the generator fires many strikes; recompute the
    // union and additionally require column monotonicity per strike.
    BitVec allowed(64);
    for (std::size_t s = 0; s < gen.strikes_per_computation(); ++s) {
      const auto anchor = static_cast<std::size_t>(replay.below(64));
      const std::size_t col = anchor % stride;
      for (std::size_t c = 0; c < 4 && col + c < stride; ++c) {
        allowed.set(anchor + c, true);
      }
    }
    for (std::size_t i = 0; i < 64; ++i) {
      EXPECT_TRUE(!mask.get(i) || allowed.get(i)) << "seed " << seed;
    }
  }
}

// -------------------------------------------------- defect-aware remap

TEST(Remap, FeasiblePlanMovesEveryDefectToAHealthySpare) {
  // 8 logical sites + 3 spares; defects at logical 2, 5 and spare 9.
  DefectMap physical(11);
  physical.add(2, DefectKind::kStuckAt1);
  physical.add(5, DefectKind::kStuckAt0);
  physical.add(9, DefectKind::kStuckAt1);
  const RemapPlan plan = remap_around_defects(physical, 8);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.spares_used, 2u);
  ASSERT_EQ(plan.logical_to_physical.size(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(physical.is_defective(plan.logical_to_physical[i]))
        << "logical " << i;
    if (i != 2 && i != 5) {
      EXPECT_FALSE(plan.moved(i)) << "healthy logical " << i << " moved";
    }
  }
  // The defective spare 9 must have been skipped, not handed out.
  EXPECT_TRUE(plan.moved(2));
  EXPECT_TRUE(plan.moved(5));
  const DefectMap residual = remap_logical_defects(physical, plan);
  EXPECT_EQ(residual.defect_count(), 0u);
}

TEST(Remap, SparesExhaustedReportsInfeasibleResidue) {
  // 4 logical defects but only 2 healthy spares: two residues remain on
  // their identity sites and the plan says so.
  DefectMap physical(8);  // 6 logical + 2 spares
  physical.add(0, DefectKind::kStuckAt0);
  physical.add(1, DefectKind::kStuckAt1);
  physical.add(3, DefectKind::kStuckAt0);
  physical.add(4, DefectKind::kStuckAt1);
  const RemapPlan plan = remap_around_defects(physical, 6);
  EXPECT_FALSE(plan.feasible);
  EXPECT_EQ(plan.spares_used, 2u);
  const DefectMap residual = remap_logical_defects(physical, plan);
  EXPECT_EQ(residual.defect_count(), 2u);
  EXPECT_EQ(residual.sites(), 6u);
}

TEST(Remap, LogicalDefectsKeepTheirStuckPolarityThroughThePlan) {
  DefectMap physical(6);  // 4 logical + 2 spares, no healthy spare left
  physical.add(1, DefectKind::kStuckAt1);
  physical.add(4, DefectKind::kStuckAt0);
  physical.add(5, DefectKind::kStuckAt1);
  const RemapPlan plan = remap_around_defects(physical, 4);
  EXPECT_FALSE(plan.feasible);
  const DefectMap residual = remap_logical_defects(physical, plan);
  ASSERT_EQ(residual.defect_count(), 1u);
  ASSERT_TRUE(residual.is_defective(1));
  // Stuck-at-1 over golden 0 reads flipped; over golden 1 it does not.
  EXPECT_EQ(residual.forced_flip(1, false), std::optional<bool>(true));
  EXPECT_EQ(residual.forced_flip(1, true), std::optional<bool>(false));
}

TEST(Remap, NoDefectsYieldsTheIdentityPlan) {
  DefectMap physical(10);
  const RemapPlan plan = remap_around_defects(physical, 8);
  EXPECT_TRUE(plan.feasible);
  EXPECT_EQ(plan.spares_used, 0u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_FALSE(plan.moved(i));
  }
}

}  // namespace
}  // namespace nbx
