#include "sim/experiment.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "alu/alu_factory.hpp"
#include "fault/sweep.hpp"
#include "obs/counters.hpp"

namespace nbx {
namespace {

TEST(Experiment, ZeroFaultTrialIsPerfect) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  Rng rng(1);
  TrialConfig cfg;
  cfg.fault_percent = 0.0;
  const TrialResult r = run_trial(*alu, streams[0], cfg, rng);
  EXPECT_EQ(r.instructions, 64u);
  EXPECT_EQ(r.incorrect, 0u);
  EXPECT_DOUBLE_EQ(r.percent_correct, 100.0);
}

TEST(Experiment, HighFaultTrialIsImperfect) {
  const auto alu = make_alu("aluncmos");
  const auto streams = paper_streams();
  Rng rng(2);
  TrialConfig cfg;
  cfg.fault_percent = 50.0;
  const TrialResult r = run_trial(*alu, streams[0], cfg, rng);
  EXPECT_GT(r.incorrect, 32u);
  EXPECT_LT(r.percent_correct, 50.0);
}

TEST(Experiment, DataPointAveragesTenSamples) {
  // 5 trials x 2 workloads = 10 samples per plotted point (§4/§5).
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const DataPoint p = TrialEngine{}.point(
      *alu, streams,
      {.percents = {1.0}, .trials_per_workload = kPaperTrialsPerWorkload,
       .seed = 42});
  EXPECT_EQ(p.samples, 10u);
  EXPECT_EQ(p.alu, "alunn");
  EXPECT_EQ(p.fault_percent, 1.0);
  EXPECT_GE(p.mean_percent_correct, 0.0);
  EXPECT_LE(p.mean_percent_correct, 100.0);
}

TEST(Experiment, DataPointCarriesConfidenceInterval) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const DataPoint p = TrialEngine{}.point(
      *alu, streams,
      {.percents = {3.0}, .trials_per_workload = 5, .seed = 42});
  // 10 noisy samples: the CI half-width is positive and consistent with
  // the reported stddev (t_{9} = 2.262).
  EXPECT_GT(p.stddev, 0.0);
  EXPECT_NEAR(p.ci95, 2.262 * p.stddev / std::sqrt(10.0), 1e-9);
  // A zero-fault point has zero spread and zero CI.
  const DataPoint clean = TrialEngine{}.point(
      *alu, streams,
      {.percents = {0.0}, .trials_per_workload = 5, .seed = 42});
  EXPECT_EQ(clean.ci95, 0.0);
}

TEST(Experiment, DataPointsAreDeterministic) {
  const auto alu = make_alu("aluns");
  const auto streams = paper_streams();
  const SweepSpec spec{
      .percents = {3.0}, .trials_per_workload = 5, .seed = 7};
  const DataPoint a = TrialEngine{}.point(*alu, streams, spec);
  const DataPoint b = TrialEngine{}.point(*alu, streams, spec);
  EXPECT_EQ(a.mean_percent_correct, b.mean_percent_correct);
  EXPECT_EQ(a.stddev, b.stddev);
}

TEST(Experiment, SweepProducesOnePointPerPercent) {
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const std::vector<double> percents = {0.0, 1.0, 10.0};
  const auto points = TrialEngine{}.sweep(
      *alu, streams,
      {.percents = percents, .trials_per_workload = 2, .seed = 1});
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].fault_percent, 0.0);
  EXPECT_DOUBLE_EQ(points[0].mean_percent_correct, 100.0);
  EXPECT_GE(points[1].mean_percent_correct,
            points[2].mean_percent_correct - 5.0);
}

TEST(Experiment, PaperStreamsShape) {
  const auto streams = paper_streams();
  ASSERT_EQ(streams.size(), 2u);  // reverse video + hue shift
  EXPECT_EQ(streams[0].size(), 64u);
  EXPECT_EQ(streams[1].size(), 64u);
  EXPECT_EQ(streams[0][0].op, Opcode::kXor);
  EXPECT_EQ(streams[1][0].op, Opcode::kAdd);
}

TEST(Experiment, DatapathOnlyScopeSparesTheVoter) {
  // Ablation plumbing: with InjectionScope::kDatapathOnly the voter and
  // storage segments never receive faults. At a violent fault rate the
  // space ALU's accuracy should be no worse than with full-scope faults.
  const auto alu = make_alu("alusn");
  const auto streams = paper_streams();
  const std::size_t datapath = 3 * 512;
  SweepSpec spec;
  spec.percents = {8.0};
  spec.trials_per_workload = 5;
  spec.seed = 3;
  const DataPoint full = TrialEngine{}.point(*alu, streams, spec);
  spec.scope = InjectionScope::kDatapathOnly;
  spec.datapath_sites = datapath;
  const DataPoint spared = TrialEngine{}.point(*alu, streams, spec);
  EXPECT_GE(spared.mean_percent_correct, full.mean_percent_correct - 3.0);
}

TEST(Experiment, StatsTelemetryFlowsThrough) {
  const auto alu = make_alu("aluns");
  const auto streams = paper_streams();
  Rng rng(5);
  TrialConfig cfg;
  cfg.fault_percent = 5.0;
  obs::Counters sink;
  const TrialResult r = run_trial(*alu, streams[0], cfg, rng, &sink);
  EXPECT_EQ(r.instructions, 64u);
  EXPECT_EQ(sink.injection.masks_generated, 64u);
  EXPECT_EQ(sink.end_to_end.instructions, 64u);
  EXPECT_GT(sink.at(obs::CodeLayer::kTmr).reads, 0u);
  EXPECT_GT(sink.at(obs::CodeLayer::kTmr).corrected, 0u);
}

}  // namespace
}  // namespace nbx
