// wafer_study_test.cpp — the wafer-scale defect Monte Carlo (run just
// this slice with `ctest -R '^WaferSmoke\.'`). A small
// manufactured-wafer population runs through the full control-processor
// / watchdog failover machinery twice from the same manufacture seeds —
// oblivious vs defect-aware placement — and must reproduce the pinned
// distribution, stay bit-identical across thread counts, and show the
// remap arm never losing to the oblivious arm.
#include <gtest/gtest.h>

#include <cstddef>

#include "alu/lut_core_alu.hpp"
#include "goldens.hpp"
#include "grid/wafer_study.hpp"

namespace nbx {
namespace {

const goldens::WaferStudyGolden& kGold = goldens::kWaferTmr2PctDensity;

TrialEngine engine(unsigned threads) {
  ParallelConfig par;
  par.threads = threads;
  return TrialEngine(par);
}

/// The golden configuration: bench_wafer's cell archetype at the pinned
/// population size (8 wafers, 3x3, 2% stuck-at density, spare pool an
/// eighth of the logical fabric, 0.5% transient overlay).
WaferSpec golden_spec(bool remap) {
  const std::size_t logical = LutCoreAlu(LutCoding::kTmr).fault_sites();
  WaferSpec spec;
  spec.wafers = kGold.wafers;
  spec.cell.alu_coding = LutCoding::kTmr;
  spec.cell.alu_fault_percent = 0.5;
  spec.cell.alu_defect_density = kGold.defect_density;
  spec.cell.alu_spare_sites = logical / 8;
  spec.cell.count_masked_faults = true;
  spec.cell.error_threshold = 400;
  spec.seed = 2026;
  spec.yield_threshold = 95.0;
  if (remap) {
    spec.cell.remap_defects = true;
    spec.condemn_infeasible = true;
  }
  return spec;
}

TEST(WaferSmoke, StudyMatchesThePinnedDistribution) {
  const WaferStudy oblivious =
      run_wafer_study(engine(1), golden_spec(false));
  const WaferStudy adaptive = run_wafer_study(engine(1), golden_spec(true));
  ASSERT_EQ(oblivious.wafers.size(), kGold.wafers);
  ASSERT_EQ(adaptive.wafers.size(), kGold.wafers);
  EXPECT_DOUBLE_EQ(oblivious.yield, kGold.oblivious_yield);
  EXPECT_DOUBLE_EQ(oblivious.mean_percent_correct,
                   kGold.oblivious_mean_percent_correct);
  EXPECT_DOUBLE_EQ(adaptive.yield, kGold.remap_yield);
  EXPECT_DOUBLE_EQ(adaptive.mean_percent_correct,
                   kGold.remap_mean_percent_correct);
  // Both arms manufacture the same wafers: the pre-placement defect
  // distribution is shared, only the placement differs.
  EXPECT_DOUBLE_EQ(oblivious.mean_manufactured_defects,
                   kGold.mean_manufactured_defects);
  EXPECT_DOUBLE_EQ(adaptive.mean_manufactured_defects,
                   kGold.mean_manufactured_defects);
  EXPECT_DOUBLE_EQ(adaptive.mean_effective_defects,
                   kGold.remap_mean_effective_defects);
}

TEST(WaferSmoke, PopulationIsBitIdenticalAcrossThreadCounts) {
  // Wafer w's cells seed from derive_seed({seed, w}) and outcomes fold
  // in wafer order, so an 8-thread pool must reproduce the serial
  // population exactly, wafer by wafer.
  const WaferStudy serial = run_wafer_study(engine(1), golden_spec(true));
  const WaferStudy pooled = run_wafer_study(engine(8), golden_spec(true));
  ASSERT_EQ(serial.wafers.size(), pooled.wafers.size());
  for (std::size_t w = 0; w < serial.wafers.size(); ++w) {
    const WaferOutcome& a = serial.wafers[w];
    const WaferOutcome& b = pooled.wafers[w];
    EXPECT_EQ(a.percent_correct, b.percent_correct) << "wafer " << w;
    EXPECT_EQ(a.manufactured_defects, b.manufactured_defects)
        << "wafer " << w;
    EXPECT_EQ(a.effective_defects, b.effective_defects) << "wafer " << w;
    EXPECT_EQ(a.cells_condemned, b.cells_condemned) << "wafer " << w;
    EXPECT_EQ(a.cells_disabled, b.cells_disabled) << "wafer " << w;
    EXPECT_EQ(a.salvaged_words, b.salvaged_words) << "wafer " << w;
    EXPECT_EQ(a.good, b.good) << "wafer " << w;
  }
  EXPECT_EQ(serial.yield, pooled.yield);
  EXPECT_EQ(serial.mean_percent_correct, pooled.mean_percent_correct);
}

TEST(WaferSmoke, RemapNeverLosesToObliviousPlacement) {
  const WaferStudy oblivious =
      run_wafer_study(engine(1), golden_spec(false));
  const WaferStudy adaptive = run_wafer_study(engine(1), golden_spec(true));
  ASSERT_EQ(oblivious.wafers.size(), adaptive.wafers.size());
  for (std::size_t w = 0; w < adaptive.wafers.size(); ++w) {
    // Same manufacture seeds: identical pre-placement defects, and the
    // spare pool can only absorb logical defects, never add them.
    EXPECT_EQ(adaptive.wafers[w].manufactured_defects,
              oblivious.wafers[w].manufactured_defects)
        << "wafer " << w;
    EXPECT_LE(adaptive.wafers[w].effective_defects,
              oblivious.wafers[w].effective_defects)
        << "wafer " << w;
  }
  EXPECT_GE(adaptive.mean_percent_correct,
            oblivious.mean_percent_correct);
  EXPECT_GE(adaptive.yield, oblivious.yield);
}

TEST(WaferSmoke, OutcomesAreInternallyConsistent) {
  const WaferStudy study = run_wafer_study(engine(1), golden_spec(true));
  for (const WaferOutcome& o : study.wafers) {
    EXPECT_GE(o.percent_correct, 0.0);
    EXPECT_LE(o.percent_correct, 100.0);
    EXPECT_LE(o.effective_defects, o.manufactured_defects);
    EXPECT_EQ(o.good, o.percent_correct >= 95.0);
    // A 3x3 grid cannot disable more cells than it has, and condemned
    // cells are a subset of the disabled ones.
    EXPECT_LE(o.cells_disabled, 9u);
    EXPECT_LE(o.cells_condemned, o.cells_disabled);
  }
}

}  // namespace
}  // namespace nbx
