// seed_golden_test.cpp — pins the exact output of the documented
// reference configuration (aluss, 2% faults, master seed 2026, the
// paper's 5-trials-per-workload protocol) and the seed-derivation chain
// beneath it. A refactor of the RNG split, the mask generator, the
// stats fold or the ALU structures that silently shifts every plotted
// figure fails here instead of going unnoticed.
//
// If a PR changes these values ON PURPOSE (e.g. a deliberate reseeding),
// re-pin the constants and say so in the PR description — the figures
// in every BENCH_*.json will shift with them.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "alu/alu_factory.hpp"
#include "fault/mask_generator.hpp"
#include "goldens.hpp"
#include "sim/bench_json.hpp"
#include "sim/experiment.hpp"

namespace nbx {
namespace {

// All pinned values live in the registry (tests/goldens.hpp); this file
// only asserts that the simulator reproduces them.
const goldens::ReferencePoint& kRef = goldens::kAlussAt2Pct;

TEST(SeedGolden, DeriveSeedChainIsPinned) {
  // The counter-based split primitive itself.
  EXPECT_EQ(derive_seed({1, 2, 3}), goldens::kDeriveSeed123);
  EXPECT_EQ(fnv1a64("aluss"), goldens::kFnv1a64Aluss);
  EXPECT_EQ(MaskGenerator::trial_seed(kRef.seed, fnv1a64(kRef.alu),
                                      kRef.fault_percent,
                                      /*workload=*/0, /*trial=*/0),
            goldens::kTrialSeedAluss2Pct);
}

TEST(SeedGolden, AlussAtTwoPercentUnderSeed2026) {
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  const DataPoint p = TrialEngine{}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_EQ(p.samples, kRef.samples);
  EXPECT_DOUBLE_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_DOUBLE_EQ(p.stddev, kRef.stddev);
  EXPECT_DOUBLE_EQ(p.ci95, kRef.ci95);
}

TEST(SeedGolden, ParallelPathReproducesTheGoldenPoint) {
  // The pinned value must hold on the thread pool too, not just the
  // serial fold.
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  const DataPoint p = TrialEngine{ParallelConfig{.threads = 4}}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_DOUBLE_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_DOUBLE_EQ(p.stddev, kRef.stddev);
}

TEST(SeedGolden, BatchedEngineReproducesTheGoldenPoint) {
  // The bit-parallel engine at 64 lanes must land on the same pinned
  // numbers: per-trial seeds are reused verbatim, lanes only change the
  // packing. EXPECT_EQ (not DOUBLE_EQ) — bit-identical is the contract.
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  ParallelConfig par;
  par.batch_lanes = 64;
  const DataPoint p = TrialEngine{par}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  EXPECT_EQ(p.samples, kRef.samples);
  EXPECT_EQ(p.mean_percent_correct, kRef.mean_percent_correct);
  EXPECT_EQ(p.stddev, kRef.stddev);
  EXPECT_EQ(p.ci95, kRef.ci95);
}

TEST(SeedGolden, SaveBenchJsonCreatesMissingDirectories) {
  BenchReport r;
  r.bench = "simd";
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "nbx_bench_json_test";
  std::filesystem::remove_all(dir);
  const std::string target = (dir / "nested" / "BENCH_simd.json").string();
  EXPECT_EQ(save_bench_json(r, target), target);
  std::ifstream in(target);
  EXPECT_TRUE(in.good());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nbx
