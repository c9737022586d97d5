// profiler_test.cpp — stage profiler and progress reporter. The stage
// histograms are obs::MetricHistogram; metrics_test.cpp covers their
// buckets, moments and quantiles.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/profiler.hpp"
#include "obs/progress.hpp"

namespace nbx::obs {
namespace {

TEST(ProfilerTest, ProfileJsonCarriesQuantiles) {
  Profiler prof;
  const std::size_t stage = prof.stage_index("trial");
  prof.record(stage, 0.0, 0.002);
  prof.record(stage, 0.002, 0.004);
  std::ostringstream os;
  prof.write_profile_json(os);
  const std::string out = os.str();
  for (const char* key :
       {"\"stages\"", "\"trial\"", "\"count\"", "\"total_seconds\"",
        "\"mean_seconds\"", "\"p50_seconds\"", "\"p95_seconds\"",
        "\"p99_seconds\""}) {
    EXPECT_NE(out.find(key), std::string::npos)
        << "missing " << key << " in " << out;
  }
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
}

TEST(ProfilerTest, StagesAreCreatedOnceAndAccumulate) {
  Profiler prof;
  const std::size_t a = prof.stage_index("trial");
  const std::size_t b = prof.stage_index("fold");
  EXPECT_EQ(prof.stage_index("trial"), a);
  EXPECT_NE(a, b);

  prof.record(a, 0.0, 0.002);
  prof.record(a, 0.002, 0.004);
  prof.record(b, 0.006, 0.001);
  const auto stages = prof.stages();
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages[a].name, "trial");
  EXPECT_EQ(stages[a].hist.count, 2u);
  EXPECT_DOUBLE_EQ(stages[a].hist.total_seconds, 0.006);
  EXPECT_DOUBLE_EQ(stages[a].hist.mean_seconds(), 0.003);
  EXPECT_DOUBLE_EQ(stages[a].hist.min_seconds, 0.002);
  EXPECT_DOUBLE_EQ(stages[a].hist.max_seconds, 0.004);
  EXPECT_EQ(stages[b].hist.count, 1u);
  // One sample: every quantile is that sample.
  EXPECT_DOUBLE_EQ(stages[b].hist.p50_seconds(), 0.001);
  EXPECT_DOUBLE_EQ(stages[b].hist.p99_seconds(), 0.001);

  std::ostringstream os;
  prof.write_summary(os);
  EXPECT_NE(os.str().find("trial"), std::string::npos);
  EXPECT_NE(os.str().find("fold"), std::string::npos);
}

TEST(ProfilerTest, StageCountIsCappedAndStrayIndicesAreIgnored) {
  Profiler prof;
  for (std::size_t i = 0; i < Profiler::kMaxStages; ++i) {
    EXPECT_EQ(prof.stage_index("s" + std::to_string(i)), i);
  }
  EXPECT_THROW((void)prof.stage_index("one_too_many"), std::length_error);
  EXPECT_EQ(prof.stage_index("s0"), 0u);  // existing names still resolve
  prof.record(Profiler::kMaxStages, 0.0, 1.0);
  prof.record(Profiler::kMaxStages + 7, 0.0, 1.0);
  for (const StageProfile& s : prof.stages()) {
    EXPECT_EQ(s.hist.count, 0u) << s.name;
  }
}

TEST(ProfilerTest, ScopedTimerIsInertOnNullAndRecordsOtherwise) {
  { ScopedTimer inert(nullptr, 0); }  // must not crash or read a clock

  Profiler prof;
  const std::size_t stage = prof.stage_index("work");
  { ScopedTimer t(&prof, stage); }
  EXPECT_EQ(prof.stages()[stage].hist.count, 1u);
}

TEST(ProfilerTest, ChromeTraceListsCapturedEvents) {
  Profiler prof(/*capture_events=*/true);
  const std::size_t stage = prof.stage_index("lane_group");
  prof.record(stage, 0.001, 0.0005);
  std::ostringstream os;
  prof.write_chrome_trace(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"lane_group\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));

  // Without capture, the document is still valid, just empty.
  Profiler summary_only;
  summary_only.record(summary_only.stage_index("x"), 0.0, 0.001);
  std::ostringstream empty;
  summary_only.write_chrome_trace(empty);
  EXPECT_NE(empty.str().find("\"traceEvents\": [\n]"), std::string::npos);
}

TEST(ProfilerTest, ConcurrentRecordsAllLand) {
  // Records into a shared stage race with other threads creating and
  // recording into stages of their own.
  Profiler prof;
  const std::size_t stage = prof.stage_index("trial");
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&prof, stage, t] {
      const std::size_t own = prof.stage_index("worker" + std::to_string(t));
      for (int i = 0; i < 100; ++i) {
        prof.record(stage, 0.0, 1e-6);
        prof.record(own, 0.0, 2e-6);
      }
    });
  }
  for (auto& w : workers) {
    w.join();
  }
  const std::vector<StageProfile> stages = prof.stages();
  ASSERT_EQ(stages.size(), 5u);
  EXPECT_EQ(stages[stage].hist.count, 400u);
  for (const StageProfile& s : stages) {
    if (s.name != "trial") {
      EXPECT_EQ(s.hist.count, 100u) << s.name;
      EXPECT_DOUBLE_EQ(s.hist.total_seconds, 100 * 2e-6) << s.name;
    }
  }
}

TEST(ProgressReporterTest, ReportsPointsAndFinishes) {
  std::ostringstream os;
  ProgressReporter progress(os, "sweep", 4, 10);
  progress.tick();
  progress.tick(3);
  progress.finish();
  const std::string out = os.str();
  EXPECT_NE(out.find("sweep:"), std::string::npos);
  EXPECT_NE(out.find("4/4 points"), std::string::npos);
  EXPECT_NE(out.find("trials/s"), std::string::npos);
  EXPECT_NE(out.find("ETA"), std::string::npos);
  EXPECT_EQ(out.back(), '\n');
  EXPECT_EQ(progress.done(), 4u);
}

TEST(ProgressReporterTest, UnusedReporterStaysSilent) {
  std::ostringstream os;
  ProgressReporter progress(os, "quiet", 10, 1);
  progress.finish();
  EXPECT_TRUE(os.str().empty());
}

}  // namespace
}  // namespace nbx::obs
