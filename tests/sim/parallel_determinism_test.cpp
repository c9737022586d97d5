// parallel_determinism_test.cpp — the parallel sweep engine's contracts
// that a single backend-differential case cannot state: a sweep point
// equals the same percent evaluated alone, a figure run is thread-count
// invariant, and one engine shared by concurrent callers reproduces the
// serial sweep. (Thread-count invariance of sweeps, points and counters
// on every backend is the pinned backend table's, tests/check/.)
#include <gtest/gtest.h>

#include <thread>

#include "alu/alu_factory.hpp"
#include "sim/experiment.hpp"
#include "sim/figure.hpp"

namespace nbx {
namespace {

void expect_identical(const std::vector<DataPoint>& a,
                      const std::vector<DataPoint>& b,
                      const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // Bit-identical: plain == on the doubles, no tolerance.
    EXPECT_EQ(a[i].alu, b[i].alu) << label << " point " << i;
    EXPECT_EQ(a[i].fault_percent, b[i].fault_percent)
        << label << " point " << i;
    EXPECT_EQ(a[i].mean_percent_correct, b[i].mean_percent_correct)
        << label << " point " << i;
    EXPECT_EQ(a[i].stddev, b[i].stddev) << label << " point " << i;
    EXPECT_EQ(a[i].ci95, b[i].ci95) << label << " point " << i;
    EXPECT_EQ(a[i].samples, b[i].samples) << label << " point " << i;
  }
}

TEST(ParallelDeterminism, SweepPointEqualsStandaloneDataPoint) {
  // The sweep grid must seed each (percent, workload, trial) cell by the
  // percent's *value*, not its sweep index: evaluating a percent alone
  // reproduces the exact point from the full sweep.
  const auto alu = make_alu("alunn");
  const auto streams = paper_streams();
  const std::vector<double> percents = {0.0, 2.0, 10.0};
  const auto sweep = TrialEngine{}.sweep(
      *alu, streams,
      {.percents = percents, .trials_per_workload = 3, .seed = 11});
  for (std::size_t i = 0; i < percents.size(); ++i) {
    const DataPoint alone = TrialEngine{}.point(
        *alu, streams,
        {.percents = {percents[i]}, .trials_per_workload = 3, .seed = 11});
    EXPECT_EQ(sweep[i].mean_percent_correct, alone.mean_percent_correct)
        << percents[i];
    EXPECT_EQ(sweep[i].stddev, alone.stddev) << percents[i];
  }
}

TEST(ParallelDeterminism, RunFigureParallelMatchesSerial) {
  const std::vector<double> percents = {0.0, 3.0};
  const FigureResult serial = run_figure(figure7_spec(), percents, 2, 5);
  const FigureResult parallel =
      run_figure(figure7_spec(), percents, 2, 5,
                 ParallelConfig{.threads = 8});
  ASSERT_EQ(serial.series.size(), parallel.series.size());
  for (std::size_t s = 0; s < serial.series.size(); ++s) {
    expect_identical(serial.series[s], parallel.series[s],
                     "fig7 series " + std::to_string(s));
  }
}

TEST(ParallelDeterminism, OneEngineSharedAcrossCallersMatchesSerial) {
  // An engine keeps its worker threads across sweeps and shares them with
  // its copies; callers that find them busy get a pool of their own. Four
  // callers of one engine (two through copies), scalar and wide, must
  // each reproduce the serial sweep.
  const auto alu = make_alu("alush");
  const auto streams = paper_streams();
  const SweepSpec spec{
      .percents = {1.0, 4.0}, .trials_per_workload = 70, .seed = 5};
  for (const unsigned lanes : {0u, 64u}) {
    const auto serial =
        TrialEngine{ParallelConfig{.threads = 1, .batch_lanes = lanes}}.sweep(
            *alu, streams, spec);
    const TrialEngine engine(
        ParallelConfig{.threads = 2, .batch_lanes = lanes});
    std::vector<std::vector<DataPoint>> got(4);
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < got.size(); ++c) {
      callers.emplace_back([&, c] {
        const TrialEngine copy(engine);
        const TrialEngine& mine = c % 2 == 0 ? engine : copy;
        for (int round = 0; round < 3; ++round) {
          got[c] = mine.sweep(*alu, streams, spec);
        }
      });
    }
    for (std::thread& t : callers) {
      t.join();
    }
    for (std::size_t c = 0; c < got.size(); ++c) {
      expect_identical(serial, got[c],
                       "lanes " + std::to_string(lanes) + " caller " +
                           std::to_string(c));
    }
  }
}

}  // namespace
}  // namespace nbx
