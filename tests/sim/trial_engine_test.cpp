// trial_engine_test.cpp — lockdown of the unified TrialEngine.
//
// Two suites:
//
//   EngineDifferential — for every Table-2 ALU at several fault
//   percentages, the engine must produce the same DataPoints BIT FOR
//   BIT across every (threads x batch_lanes) composition, and the
//   anatomy counters must be equal across all of them. This is the
//   refactor's hard gate: backend selection is an implementation
//   detail, so any divergence is a real behaviour change.
//
//   TrialEngineSmoke — the fast cross-backend slice (scalar, batched,
//   anatomy, grid, custom backend) registered as the `engine_smoke`
//   ctest entry; must stay well under 30 seconds.
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

class EngineDifferential : public ::testing::Test {
 protected:
  static constexpr double kPercents[] = {0.5, 2.0, 10.0};
  static constexpr int kTrialsPerWorkload = 5;
  static constexpr std::uint64_t kSeed = 20260805;

  static const std::vector<std::vector<Instruction>>& streams() {
    static const std::vector<std::vector<Instruction>> s =
        paper_streams(2026);
    return s;
  }

  static SweepSpec sweep_spec() {
    SweepSpec spec;
    spec.percents = {kPercents[0], kPercents[1], kPercents[2]};
    spec.trials_per_workload = kTrialsPerWorkload;
    spec.seed = kSeed;
    return spec;
  }

  static void expect_identical(const DataPoint& want, const DataPoint& got,
                               const std::string& context) {
    EXPECT_EQ(want.samples, got.samples) << context;
    EXPECT_EQ(want.fault_percent, got.fault_percent) << context;
    // EXPECT_EQ, not EXPECT_DOUBLE_EQ: bit-identical, not close.
    EXPECT_EQ(want.mean_percent_correct, got.mean_percent_correct)
        << context;
    EXPECT_EQ(want.stddev, got.stddev) << context;
    EXPECT_EQ(want.ci95, got.ci95) << context;
  }

  static void run_alu(const std::string& name) {
    const auto alu = make_alu(name);
    ASSERT_NE(alu, nullptr) << name;
    const SweepSpec spec = sweep_spec();

    // Reference: the serial scalar engine, with anatomy attached (the
    // sink is passive, so these points are also sweep()'s points).
    const TrialEngine ref_engine;
    const SweepAnatomy ref = ref_engine.sweep_anatomy(*alu, streams(), spec);
    ASSERT_EQ(ref.points.size(), spec.percents.size());
    ASSERT_EQ(ref.metrics.size(), spec.percents.size());
    expect_matches_engine(ref, ref_engine.sweep(*alu, streams(), spec),
                          name + " sweep vs sweep_anatomy");

    // Every (threads x lanes) composition must agree bit for bit —
    // points and counters.
    for (const unsigned threads : {1u, 8u}) {
      for (const unsigned lanes : {0u, 1u, 64u}) {
        const TrialEngine engine{ParallelConfig{threads, 0, lanes}};
        const SweepAnatomy got =
            engine.sweep_anatomy(*alu, streams(), spec);
        const std::string context = name + " threads=" +
                                    std::to_string(threads) + " lanes=" +
                                    std::to_string(lanes);
        expect_matches_engine(ref, got.points, context);
        ASSERT_EQ(got.metrics.size(), ref.metrics.size()) << context;
        for (std::size_t i = 0; i < ref.metrics.size(); ++i) {
          EXPECT_TRUE(got.metrics[i] == ref.metrics[i])
              << context << " counters @ " << spec.percents[i] << "%";
        }
      }
    }

  }

  static void expect_matches_engine(const SweepAnatomy& ref,
                                    const std::vector<DataPoint>& got,
                                    const std::string& context) {
    ASSERT_EQ(got.size(), ref.points.size()) << context;
    for (std::size_t i = 0; i < got.size(); ++i) {
      expect_identical(ref.points[i], got[i], context);
    }
  }
};

// One test per Table-2 row so a regression names the failing ALU.
TEST_F(EngineDifferential, Aluncmos) { run_alu("aluncmos"); }
TEST_F(EngineDifferential, Alunh) { run_alu("alunh"); }
TEST_F(EngineDifferential, Alunn) { run_alu("alunn"); }
TEST_F(EngineDifferential, Aluns) { run_alu("aluns"); }
TEST_F(EngineDifferential, Aluscmos) { run_alu("aluscmos"); }
TEST_F(EngineDifferential, Alush) { run_alu("alush"); }
TEST_F(EngineDifferential, Alusn) { run_alu("alusn"); }
TEST_F(EngineDifferential, Aluss) { run_alu("aluss"); }
TEST_F(EngineDifferential, Alutcmos) { run_alu("alutcmos"); }
TEST_F(EngineDifferential, Aluth) { run_alu("aluth"); }
TEST_F(EngineDifferential, Alutn) { run_alu("alutn"); }
TEST_F(EngineDifferential, Aluts) { run_alu("aluts"); }

TEST_F(EngineDifferential, PointHonoursScopeAndPolicy) {
  // The non-default knobs must change the outcome (they are live) and
  // stay bit-identical between scalar and batched backends.
  const auto alu = make_alu("aluts");
  const std::size_t datapath = 3 * make_alu("aluns")->fault_sites();
  SweepSpec spec;
  spec.percents = {5.0};
  spec.trials_per_workload = kTrialsPerWorkload;
  spec.seed = kSeed;
  const TrialEngine engine;
  ParallelConfig par;
  par.batch_lanes = 64;
  const TrialEngine batched{par};
  const DataPoint baseline = engine.point(*alu, streams(), spec);

  spec.scope = InjectionScope::kDatapathOnly;
  spec.datapath_sites = datapath;
  const DataPoint datapath_only = engine.point(*alu, streams(), spec);
  EXPECT_NE(baseline.mean_percent_correct,
            datapath_only.mean_percent_correct)
      << "datapath-only scope must move the numbers";
  expect_identical(datapath_only, batched.point(*alu, streams(), spec),
                   "aluts datapath-only scalar vs batched");

  spec.scope = InjectionScope::kAll;
  spec.datapath_sites = 0;
  spec.policy = FaultCountPolicy::kBurst;
  spec.burst_length = 4;
  const DataPoint burst = engine.point(*alu, streams(), spec);
  EXPECT_NE(baseline.mean_percent_correct, burst.mean_percent_correct)
      << "burst policy must move the numbers";
  expect_identical(burst, batched.point(*alu, streams(), spec),
                   "aluts burst scalar vs batched");
}

// ---------------------------------------------------------------------
// The fast cross-backend slice (the `engine_smoke` ctest entry).

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
  const TrialEngine engine{ParallelConfig{8, 0, 64}};
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
  const TrialEngine engine{ParallelConfig{2, 0}};
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
    const TrialEngine engine{ParallelConfig{threads, 0}};
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
    const TrialEngine engine{ParallelConfig{2, 1}};
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
