// grid_trials_test.cpp — lockdown of the engine's grid backend.
//
// Three guarantees:
//   * the bench_failover kill schedules reproduce the pinned salvage
//     goldens (failover_golden_test.cpp) when run through run_grid_trials
//     instead of a hand-rolled loop — porting the grid benches onto the
//     TrialEngine changed no system-level outcome;
//   * a multi-cell faulty sweep is bit-identical across thread counts
//     (each trial is a pure function of its spec);
//   * that sweep's accuracy numbers are pinned, so refactors of the
//     cell/grid stack cannot silently shift bench_grid's curves.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "goldens.hpp"
#include "grid/grid_trials.hpp"
#include "workload/image_ops.hpp"

namespace nbx {
namespace {

// Asserts one engine-backed run against its registry entry
// (tests/goldens.hpp) — the same entries failover_golden_test.cpp checks
// through ControlProcessor directly.
void expect_matches_golden(const GridTrialResult& r,
                           const goldens::FailoverGolden& g) {
  EXPECT_EQ(r.report.percent_correct, g.percent_correct) << g.name;
  EXPECT_EQ(r.report.results_missing, g.results_missing) << g.name;
  EXPECT_EQ(r.report.watchdog.words_salvaged, g.words_salvaged) << g.name;
  EXPECT_EQ(r.report.watchdog.words_lost, g.words_lost) << g.name;
  EXPECT_EQ(r.report.watchdog.cells_disabled, g.cells_disabled) << g.name;
  EXPECT_EQ(r.report.instructions_computed, g.instructions_computed)
      << g.name;
  EXPECT_EQ(r.alive_map, g.alive_map) << g.name;
}

const std::vector<CellId> kVictims = {CellId{1, 1}, CellId{2, 0},
                                      CellId{0, 2}, CellId{1, 0}};

// bench_failover's workload: 16x8 random image, seed 11.
Bitmap failover_image() {
  Rng rng(11);
  return Bitmap::random(16, 8, rng);
}

GridTrialSpec failover_spec() {
  GridTrialSpec spec;
  spec.label = "3-kills/wd-on";
  spec.rows = 3;
  spec.cols = 3;
  spec.image = failover_image();
  spec.op = reverse_video_op();
  spec.options.enable_watchdog = true;
  spec.options.watchdog_interval = 16;
  spec.options.compute_cycles = 600;
  for (std::size_t k = 0; k < 3; ++k) {
    spec.options.kills.push_back(KillEvent{kVictims[k], 4 + 2 * k, true});
  }
  return spec;
}

TEST(GridTrials, FailoverGoldenHoldsThroughTheEngine) {
  const auto results = run_grid_trials(TrialEngine{}, {failover_spec()});
  ASSERT_EQ(results.size(), 1u);
  const GridTrialResult& r = results[0];
  EXPECT_EQ(r.label, goldens::kThreeKillsWatchdogOn.name);
  expect_matches_golden(r, goldens::kThreeKillsWatchdogOn);
  EXPECT_EQ(r.control_corrupted, 0u);
}

TEST(GridTrials, DeadRouterGoldenHoldsThroughTheEngine) {
  GridTrialSpec spec;
  spec.label = "2-dead-routers";
  spec.rows = 3;
  spec.cols = 3;
  spec.image = failover_image();
  spec.op = reverse_video_op();
  spec.options.watchdog_interval = 16;
  spec.options.compute_cycles = 600;
  for (std::size_t k = 0; k < 2; ++k) {
    spec.options.kills.push_back(KillEvent{kVictims[k], 4, false});
  }
  const auto results = run_grid_trials(TrialEngine{}, {spec});
  ASSERT_EQ(results.size(), 1u);
  const GridTrialResult& r = results[0];
  expect_matches_golden(r, goldens::kTwoDeadRouters);
}

// bench_grid's accuracy sweep shape: 2x2 TMR cells at increasing ALU
// fault rates, the paper test image, the hue-shift op. The rates come
// from the registry so the pinned-golden test below stays index-aligned.
std::vector<GridTrialSpec> accuracy_specs() {
  std::vector<GridTrialSpec> specs;
  for (const goldens::GridSweepGolden& g : goldens::kMultiCellTmrSweep) {
    const double pct = g.fault_percent;
    GridTrialSpec spec;
    spec.label = "2x2-tmr@" + std::to_string(pct);
    spec.cell.alu_coding = LutCoding::kTmr;
    spec.cell.alu_fault_percent = pct;
    spec.image = Bitmap::paper_test_image();
    spec.op = hue_shift_op();
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(GridTrials, MultiCellSweepIsBitIdenticalAcrossThreads) {
  const auto specs = accuracy_specs();
  const auto serial =
      run_grid_trials(TrialEngine{ParallelConfig{.threads = 1}}, specs);
  const auto threaded =
      run_grid_trials(TrialEngine{ParallelConfig{.threads = 8}}, specs);
  ASSERT_EQ(serial.size(), specs.size());
  ASSERT_EQ(threaded.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(serial[i].label, threaded[i].label);
    EXPECT_EQ(serial[i].report.percent_correct,
              threaded[i].report.percent_correct)
        << specs[i].label;
    EXPECT_EQ(serial[i].report.instructions_computed,
              threaded[i].report.instructions_computed)
        << specs[i].label;
    EXPECT_EQ(serial[i].alive_map, threaded[i].alive_map) << specs[i].label;
    EXPECT_EQ(serial[i].control_corrupted, threaded[i].control_corrupted)
        << specs[i].label;
    EXPECT_TRUE(serial[i].output == threaded[i].output) << specs[i].label;
  }
}

TEST(GridTrials, MultiCellSweepGoldenIsPinned) {
  // Registry entries captured from the configuration above; a deliberate
  // reseeding must re-pin tests/goldens.hpp and say so in the PR
  // description.
  const auto results = run_grid_trials(
      TrialEngine{ParallelConfig{.threads = 8}}, accuracy_specs());
  ASSERT_EQ(results.size(), goldens::kMultiCellTmrSweepSize);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].report.percent_correct,
              goldens::kMultiCellTmrSweep[i].percent_correct)
        << results[i].label;
    EXPECT_EQ(results[i].alive_map, goldens::kMultiCellAliveMap)
        << results[i].label;
    EXPECT_EQ(results[i].report.results_missing, 0u) << results[i].label;
  }
}

TEST(GridTrials, ProgressTicksOncePerTrial) {
  std::ostringstream os;
  obs::ProgressReporter progress(os, "grid", 3, 1);
  const auto results = run_grid_trials(
      TrialEngine{ParallelConfig{.threads = 2}}, accuracy_specs(), &progress);
  EXPECT_EQ(results.size(), 3u);
  EXPECT_EQ(progress.done(), 3u);
}

}  // namespace
}  // namespace nbx
