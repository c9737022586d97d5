// anatomy_test.cpp — the fault-anatomy metrics contract: attaching a
// sink never moves a pinned golden, and the tallies obey the bucket-sum
// identities the docs promise. (That the counters are bit-identical
// across every thread count, lane count and SIMD tier is the pinned
// backend table's, tests/check/.)
#include <gtest/gtest.h>

#include "alu/alu_factory.hpp"
#include "sim/experiment.hpp"

namespace nbx {
namespace {

obs::Counters anatomy_at(const std::string& alu_name, double percent,
                         int trials) {
  const auto alu = make_alu(alu_name);
  const auto streams = paper_streams(2026);
  const SweepAnatomy a = TrialEngine{}.sweep_anatomy(
      *alu, streams,
      {.percents = {percent}, .trials_per_workload = trials, .seed = 2026});
  return a.metrics.front();
}

std::uint64_t bucket_sum(const obs::CodeLayerCounters& c) {
  return c.clean + c.corrected + c.miscorrected + c.detected_uncorrectable +
         c.false_positive + c.undetected;
}

TEST(Anatomy, AttachingTheSinkNeverMovesTheGolden) {
  // The pinned seed-2026 golden from seed_golden_test, recomputed with
  // the anatomy sink attached: accounting must be purely passive.
  const auto alu = make_alu("aluss");
  const auto streams = paper_streams(2026);
  const AnatomyPoint with_sink = TrialEngine{}.point_anatomy(
      *alu, streams,
      {.percents = {2.0}, .trials_per_workload = 5, .seed = 2026});
  EXPECT_EQ(with_sink.point.samples, 10u);
  EXPECT_DOUBLE_EQ(with_sink.point.mean_percent_correct, 98.90625);
  EXPECT_DOUBLE_EQ(with_sink.point.stddev, 0.75475920553070042);
  EXPECT_DOUBLE_EQ(with_sink.point.ci95, 0.53988469906198522);

  // And the whole point must be bit-identical to the sink-free run.
  const DataPoint bare = TrialEngine{}.point(
      *alu, streams,
      {.percents = {2.0}, .trials_per_workload = 5, .seed = 2026});
  EXPECT_EQ(with_sink.point.mean_percent_correct, bare.mean_percent_correct);
  EXPECT_EQ(with_sink.point.stddev, bare.stddev);
  EXPECT_EQ(with_sink.point.ci95, bare.ci95);
}

TEST(Anatomy, SweepAnatomyPointsMatchPlainSweep) {
  const auto alu = make_alu("aluts");
  const auto streams = paper_streams(2026);
  const std::vector<double> percents = {0.0, 2.0, 10.0};
  SweepSpec spec;
  spec.percents = percents;
  spec.trials_per_workload = 2;
  spec.seed = 2026;
  const SweepAnatomy a = TrialEngine{}.sweep_anatomy(*alu, streams, spec);
  const std::vector<DataPoint> plain =
      TrialEngine{}.sweep(*alu, streams, spec);
  ASSERT_EQ(a.points.size(), plain.size());
  ASSERT_EQ(a.metrics.size(), plain.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(a.points[i].mean_percent_correct,
              plain[i].mean_percent_correct);
    EXPECT_EQ(a.points[i].stddev, plain[i].stddev);
  }
}

TEST(Anatomy, BucketSumsAndEndToEndIdentities) {
  const int trials = 2;
  const auto streams = paper_streams(2026);
  const std::uint64_t instructions =
      streams.size() * static_cast<std::uint64_t>(trials) * 64;
  for (const char* name : {"aluss", "alunh", "alunn", "aluth", "aluncmos"}) {
    const obs::Counters c = anatomy_at(name, 2.0, trials);
    SCOPED_TRACE(name);
    // Every coded read lands in exactly one outcome bucket.
    for (const obs::CodeLayer layer : obs::kAllCodeLayers) {
      EXPECT_EQ(bucket_sum(c.at(layer)), c.at(layer).reads)
          << obs::code_layer_name(layer);
    }
    // Every instruction lands in exactly one end-to-end bucket, and one
    // mask is generated per instruction.
    const auto& e = c.end_to_end;
    EXPECT_EQ(e.instructions, instructions);
    EXPECT_EQ(e.correct + e.silent_corruptions + e.caught_errors +
                  e.false_alarms,
              e.instructions);
    EXPECT_EQ(c.injection.masks_generated, instructions);
    EXPECT_GT(c.injection.faults_injected, 0u);
  }
}

TEST(Anatomy, LayerAttributionMatchesTheAluArchitecture) {
  // aluncmos: a plain CMOS ALU — no coded storage at all, so the code
  // layers must stay silent while injection and e2e still tally.
  const obs::Counters cmos = anatomy_at("aluncmos", 2.0, 2);
  for (const obs::CodeLayer layer : obs::kAllCodeLayers) {
    EXPECT_EQ(cmos.at(layer).reads, 0u) << obs::code_layer_name(layer);
  }
  EXPECT_EQ(cmos.module_level.votes, 0u);
  EXPECT_GT(cmos.injection.faults_injected, 0u);
  EXPECT_GT(cmos.end_to_end.silent_corruptions, 0u);

  // alunh: Hamming-coded LUTs, no module redundancy.
  const obs::Counters h = anatomy_at("alunh", 2.0, 2);
  EXPECT_GT(h.at(obs::CodeLayer::kHamming).reads, 0u);
  EXPECT_GT(h.at(obs::CodeLayer::kHamming).corrected, 0u);
  EXPECT_EQ(h.at(obs::CodeLayer::kTmr).reads, 0u);
  EXPECT_EQ(h.module_level.votes, 0u);

  // aluss: TMR LUTs under space redundancy — triplicated reads, module
  // votes, and genuine corrections at the paper's headline 2%.
  const obs::Counters s = anatomy_at("aluss", 2.0, 2);
  EXPECT_GT(s.at(obs::CodeLayer::kTmr).reads, 0u);
  EXPECT_GT(s.at(obs::CodeLayer::kTmr).corrected, 0u);
  EXPECT_EQ(s.at(obs::CodeLayer::kHamming).reads, 0u);
  EXPECT_GT(s.module_level.votes, 0u);

  // aluth: Hamming LUTs under time redundancy — storage faults appear.
  const obs::Counters t = anatomy_at("aluth", 2.0, 2);
  EXPECT_GT(t.at(obs::CodeLayer::kHamming).reads, 0u);
  EXPECT_GT(t.module_level.storage_faults, 0u);
}

TEST(Anatomy, ZeroPercentIsAllCleanAndCorrect) {
  const obs::Counters c = anatomy_at("aluss", 0.0, 2);
  EXPECT_EQ(c.injection.faults_injected, 0u);
  EXPECT_EQ(c.end_to_end.correct, c.end_to_end.instructions);
  EXPECT_EQ(c.end_to_end.silent_corruptions, 0u);
  EXPECT_EQ(c.end_to_end.false_alarms, 0u);
  const auto& tmr = c.at(obs::CodeLayer::kTmr);
  EXPECT_GT(tmr.reads, 0u);
  EXPECT_EQ(tmr.clean, tmr.reads);
  EXPECT_EQ(c.module_level.copies_outvoted, 0u);
  EXPECT_EQ(c.module_level.voter_self_faults, 0u);
}

}  // namespace
}  // namespace nbx
