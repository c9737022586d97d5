// trial_engine_test.cpp — lockdown of the unified TrialEngine.
//
// Bit-identity across backends (threads x lanes x tiers x sink) is the
// pinned backend-differential table's job (tests/check/). Here:
//
//   EngineDifferential.PointHonoursScopeAndPolicy — the non-default
//   scope and policy knobs are live: each moves the numbers.
//
//   TrialEngineSmoke — the fast cross-backend slice (scalar, batched,
//   anatomy, grid, custom backend); must stay well under 30 seconds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <latch>
#include <string>
#include <thread>
#include <vector>

#include "alu/alu_factory.hpp"
#include "grid/grid_trials.hpp"
#include "sim/experiment.hpp"
#include "workload/image_ops.hpp"

namespace nbx {
namespace {

TEST(EngineDifferential, PointHonoursScopeAndPolicy) {
  // The non-default knobs must change the outcome: they are live. (That
  // every backend agrees under them is pinned by the backend table's
  // DatapathScope_aluts and BurstPolicy_aluts rows.)
  const auto alu = make_alu("aluts");
  const auto streams = paper_streams(2026);
  SweepSpec spec;
  spec.percents = {5.0};
  spec.trials_per_workload = 5;
  spec.seed = 20260805;
  const TrialEngine engine;
  const DataPoint baseline = engine.point(*alu, streams, spec);

  spec.scope = InjectionScope::kDatapathOnly;
  spec.datapath_sites = 3 * make_alu("aluns")->fault_sites();
  EXPECT_NE(baseline.mean_percent_correct,
            engine.point(*alu, streams, spec).mean_percent_correct)
      << "datapath-only scope must move the numbers";

  spec.scope = InjectionScope::kAll;
  spec.datapath_sites = 0;
  spec.policy = FaultCountPolicy::kBurst;
  spec.burst_length = 4;
  EXPECT_NE(baseline.mean_percent_correct,
            engine.point(*alu, streams, spec).mean_percent_correct)
      << "burst policy must move the numbers";
}

// ---------------------------------------------------------------------
// The fast cross-backend slice.

class TrialEngineSmoke : public ::testing::Test {
 protected:
  // The documented reference configuration (see seed_golden_test.cpp):
  // aluss, 2% faults, master seed 2026, the paper's 5-trials protocol.
  static SweepSpec golden_spec() {
    SweepSpec spec;
    spec.percents = {2.0};
    spec.trials_per_workload = 5;
    spec.seed = 2026;
    return spec;
  }

  static void expect_golden(const DataPoint& p) {
    EXPECT_EQ(p.samples, 10u);
    EXPECT_EQ(p.mean_percent_correct, 98.90625);
    EXPECT_EQ(p.stddev, 0.75475920553070042);
    EXPECT_EQ(p.ci95, 0.53988469906198522);
  }
};

TEST_F(TrialEngineSmoke, ScalarBackendHitsThePinnedGolden) {
  const auto alu = make_alu("aluss");
  expect_golden(
      TrialEngine{}.point(*alu, paper_streams(2026), golden_spec()));
}

TEST_F(TrialEngineSmoke, BatchedBackendHitsThePinnedGolden) {
  const auto alu = make_alu("aluss");
  const TrialEngine engine{ParallelConfig{.threads = 8, .batch_lanes = 64}};
  expect_golden(engine.point(*alu, paper_streams(2026), golden_spec()));
}

TEST_F(TrialEngineSmoke, AnatomyBackendHitsThePinnedGoldenAndCounts) {
  const auto alu = make_alu("aluss");
  const AnatomyPoint p =
      TrialEngine{}.point_anatomy(*alu, paper_streams(2026), golden_spec());
  expect_golden(p.point);
  // 5 trials x 2 workloads x 64 instructions, one mask each.
  EXPECT_EQ(p.counters.injection.masks_generated, 640u);
  EXPECT_EQ(p.counters.end_to_end.instructions, 640u);
  EXPECT_EQ(p.counters.end_to_end.correct +
                p.counters.end_to_end.silent_corruptions +
                p.counters.end_to_end.caught_errors +
                p.counters.end_to_end.false_alarms,
            640u);
}

TEST_F(TrialEngineSmoke, GridBackendComputesACleanImage) {
  std::vector<GridTrialSpec> specs(2);
  for (GridTrialSpec& spec : specs) {
    spec.label = "2x2-clean";
    spec.image = Bitmap::paper_test_image();
    spec.op = reverse_video_op();
  }
  const TrialEngine engine{ParallelConfig{.threads = 2}};
  const auto results = run_grid_trials(engine, specs);
  ASSERT_EQ(results.size(), 2u);
  for (const GridTrialResult& r : results) {
    EXPECT_EQ(r.label, "2x2-clean");
    EXPECT_EQ(r.report.percent_correct, 100.0);
    EXPECT_EQ(r.alive_map, "####");
    EXPECT_EQ(r.control_corrupted, 0u);
    EXPECT_TRUE(r.output ==
                apply_golden(Bitmap::paper_test_image(), reverse_video_op()));
  }
}

TEST_F(TrialEngineSmoke, ExecuteSchedulesEveryItemOfACustomBackend) {
  // The TrialBackend concept is the extension point; a trivial backend
  // must run every item exactly once under any thread count.
  struct CountingBackend {
    std::array<std::atomic<int>, 64> hits{};
    [[nodiscard]] std::size_t item_count() const { return hits.size(); }
    [[nodiscard]] std::string_view stage() const { return "trial"; }
    void run_item(std::size_t i) { hits[i].fetch_add(1); }
  };
  static_assert(TrialBackend<CountingBackend>);
  for (const unsigned threads : {1u, 4u}) {
    CountingBackend backend;
    const TrialEngine engine{ParallelConfig{.threads = threads}};
    engine.execute(backend);
    for (std::size_t i = 0; i < backend.hits.size(); ++i) {
      EXPECT_EQ(backend.hits[i].load(), 1) << "item " << i << " threads "
                                           << threads;
    }
  }
}

TEST_F(TrialEngineSmoke, ExecuteKeepsItsWorkerThreadsAcrossCalls) {
  // Every item waits until both of the engine's threads hold one, so
  // each execute() runs on exactly two threads. Counted by first touch
  // of a thread_local: the engine and its copy start one worker between
  // them, however many executes they run.
  static std::atomic<int> threads_seen{0};
  struct PairBackend {
    std::latch* both_in;
    [[nodiscard]] std::size_t item_count() const { return 2; }
    [[nodiscard]] std::string_view stage() const { return "trial"; }
    void run_item(std::size_t) const {
      thread_local const bool seen = (threads_seen.fetch_add(1), true);
      (void)seen;
      both_in->arrive_and_wait();
    }
  };
  static_assert(TrialBackend<PairBackend>);
  std::thread([] {
    const TrialEngine engine{ParallelConfig{.threads = 2}};
    const TrialEngine copy = engine;
    for (int call = 0; call < 6; ++call) {
      std::latch both_in(2);
      PairBackend backend{&both_in};
      (call % 2 == 0 ? engine : copy).execute(backend);
    }
  }).join();
  EXPECT_EQ(threads_seen.load(), 2);  // the calling thread + one worker
}

TEST_F(TrialEngineSmoke, OnPointTicksOncePerPercent) {
  const auto alu = make_alu("alunn");
  TrialEngine engine;
  int ticks = 0;
  engine.set_on_point([&ticks] { ++ticks; });
  SweepSpec spec;
  spec.percents = {1.0, 5.0, 9.0};
  spec.trials_per_workload = 2;
  spec.seed = 1;
  const auto points = engine.sweep(*alu, paper_streams(), spec);
  EXPECT_EQ(points.size(), 3u);
  EXPECT_EQ(ticks, 3);
}

}  // namespace
}  // namespace nbx
