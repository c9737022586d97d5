// bench_throughput — google-benchmark microbenchmarks of the simulation
// substrate itself: computations/second for each ALU family, mask
// generation cost, grid cycle cost, and the unified TrialEngine's
// per-data-point cost in its scalar, batched and grid backends. These
// bound how large a sweep the harness can afford, not anything the paper
// measures.
#include <benchmark/benchmark.h>

#include "alu/alu_factory.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "grid/grid_trials.hpp"
#include "sim/trial_engine.hpp"
#include "workload/image_ops.hpp"

namespace {

using namespace nbx;

void BM_AluCompute(benchmark::State& state, const char* name, double pct) {
  const auto alu = make_alu(name);
  const MaskGenerator gen(alu->fault_sites(), pct);
  Rng rng(1);
  BitVec mask(alu->fault_sites());
  std::uint8_t a = 1;
  for (auto _ : state) {
    gen.generate(rng, mask);
    const AluOutput out = alu->compute(Opcode::kAdd, a, 0x3C,
                                       MaskView(mask, 0, mask.size()));
    benchmark::DoNotOptimize(out.value);
    a = static_cast<std::uint8_t>(a + out.value);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

BENCHMARK_CAPTURE(BM_AluCompute, aluncmos_1pct, "aluncmos", 1.0);
BENCHMARK_CAPTURE(BM_AluCompute, alunn_1pct, "alunn", 1.0);
BENCHMARK_CAPTURE(BM_AluCompute, alunh_1pct, "alunh", 1.0);
BENCHMARK_CAPTURE(BM_AluCompute, aluns_1pct, "aluns", 1.0);
BENCHMARK_CAPTURE(BM_AluCompute, aluss_1pct, "aluss", 1.0);
BENCHMARK_CAPTURE(BM_AluCompute, aluss_75pct, "aluss", 75.0);

void BM_MaskGeneration(benchmark::State& state) {
  const MaskGenerator gen(5040, static_cast<double>(state.range(0)));
  Rng rng(2);
  BitVec mask(5040);
  for (auto _ : state) {
    gen.generate(rng, mask);
    benchmark::DoNotOptimize(mask);
  }
}
BENCHMARK(BM_MaskGeneration)->Arg(1)->Arg(10)->Arg(75);

void BM_TrialRun(benchmark::State& state) {
  const auto alu = make_alu("aluss");
  const auto streams = paper_streams();
  TrialConfig cfg;
  cfg.fault_percent = 3.0;
  Rng rng(3);
  for (auto _ : state) {
    const TrialResult r = run_trial(*alu, streams[0], cfg, rng);
    benchmark::DoNotOptimize(r.percent_correct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          64);
}
BENCHMARK(BM_TrialRun);

// One full data point through the TrialEngine per iteration: range(0) is
// the batch_lanes setting (0 = scalar backend, 64 = bit-parallel).
void BM_EnginePoint(benchmark::State& state) {
  const auto alu = make_alu("aluss");
  const auto streams = paper_streams();
  ParallelConfig par;
  par.batch_lanes = static_cast<unsigned>(state.range(0));
  const TrialEngine engine(par);
  SweepSpec spec;
  spec.percents = {3.0};
  spec.trials_per_workload = 32;
  spec.seed = 3;
  for (auto _ : state) {
    const DataPoint p = engine.point(*alu, streams, spec);
    benchmark::DoNotOptimize(p.mean_percent_correct);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * 32);
}
BENCHMARK(BM_EnginePoint)->Arg(0)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_GridCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NanoBoxGrid grid(n, n, CellConfig{});
  grid.set_mode(CellMode::kCompute);
  for (auto _ : state) {
    grid.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_GridCycle)->Arg(2)->Arg(4)->Arg(8);

void BM_GridImagePass(benchmark::State& state) {
  for (auto _ : state) {
    NanoBoxGrid grid(2, 2, CellConfig{});
    ControlProcessor cp(grid);
    GridRunReport report;
    benchmark::DoNotOptimize(
        cp.run_image_op(Bitmap::paper_test_image(), reverse_video_op(), {},
                        &report));
  }
}
BENCHMARK(BM_GridImagePass)->Unit(benchmark::kMillisecond);

// Four 2x2 grid trials per iteration through the engine's grid backend;
// range(0) is the thread count.
void BM_GridTrials(benchmark::State& state) {
  std::vector<GridTrialSpec> specs(4);
  for (GridTrialSpec& spec : specs) {
    spec.image = Bitmap::paper_test_image();
    spec.op = reverse_video_op();
  }
  const TrialEngine engine{
      ParallelConfig{.threads = static_cast<unsigned>(state.range(0))}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_grid_trials(engine, specs));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_GridTrials)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

}  // namespace
