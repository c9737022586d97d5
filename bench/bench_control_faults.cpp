// bench_control_faults — the paper's foremost future-work item (§7):
// "convert the entire processor cell, including the router and
// alu-control modules, into lookup tables ... and analyze the effect of
// high fault rates on control logic." We sweep fault rates over the
// LUT-implemented control decisions (valid/pending votes and the 5-way
// routing comparison) for each bit-level coding and report the corrupted-
// decision rate, then show the end-to-end effect on a grid run (each
// grid configuration one GridTrialSpec on the unified TrialEngine).
#include <iostream>

#include "bench/bench_cli.hpp"
#include "cell/control_logic.hpp"
#include "common/thread_pool.hpp"
#include "grid/grid_trials.hpp"
#include "sim/table_render.hpp"
#include "workload/image_ops.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Control-logic fault injection: corrupted-decision rates per LUT\n"
      "coding, plus the end-to-end grid effect of faulty control.",
      bench::kThreads | bench::kProgress);
  if (cli.done()) {
    return cli.status();
  }
  const std::vector<double> percents = {0.0, 0.5, 1.0, 2.0, 5.0,
                                        10.0, 20.0};

  std::cout << "Control-logic fault injection (future work 1)\n\n";
  std::cout << "Corrupted-decision rate per coding (10k aluctrl decisions "
               "+ 10k routing decisions each):\n\n";
  TextTable t({"coding", "fault%", "corrupted %", "sites"});
  for (const LutCoding coding :
       {LutCoding::kNone, LutCoding::kHamming, LutCoding::kTmr}) {
    for (const double pct : percents) {
      ControlLogic ctl(coding, pct, 97);
      MemoryWord w;
      w.set_valid(true);
      w.set_pending(true);
      for (int i = 0; i < 10000; ++i) {
        (void)ctl.should_compute(w);
        (void)ctl.route(CellId{3, 3},
                        CellId{static_cast<std::uint8_t>(i % 8),
                               static_cast<std::uint8_t>((i / 8) % 8)});
      }
      const double rate = 100.0 *
                          static_cast<double>(ctl.corrupted_decisions()) /
                          static_cast<double>(ctl.decisions());
      t.add_row({std::string(lut_coding_suffix(coding)), fmt_double(pct, 1),
                 fmt_double(rate, 2), std::to_string(ctl.fault_sites())});
    }
  }
  t.print(std::cout);

  std::cout << "\nEnd-to-end grid effect (2x2 grid, paper image, reverse "
               "video; ideal ALUs, faulty control), "
            << resolve_threads(cli.threads()) << " thread(s):\n\n";
  const std::vector<double> grid_percents = {0.0, 2.0, 5.0, 10.0};
  std::vector<GridTrialSpec> specs;
  for (const LutCoding coding : {LutCoding::kNone, LutCoding::kTmr}) {
    for (const double pct : grid_percents) {
      GridTrialSpec spec;
      spec.label = std::string(lut_coding_suffix(coding)) + "/" +
                   fmt_double(pct, 1) + "%";
      spec.cell.control_coding = coding;
      spec.cell.control_fault_percent = pct;
      spec.image = Bitmap::paper_test_image();
      spec.op = reverse_video_op();
      spec.options.compute_cycles = 400;
      specs.push_back(std::move(spec));
    }
  }
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};
  obs::ProgressReporter progress(std::cerr, "control faults", specs.size(),
                                 1);
  const std::vector<GridTrialResult> results =
      run_grid_trials(engine, specs, cli.progress() ? &progress : nullptr);
  progress.finish();

  TextTable g({"control coding", "fault%", "% pixels correct",
               "corrupted decisions"});
  std::size_t i = 0;
  for (const LutCoding coding : {LutCoding::kNone, LutCoding::kTmr}) {
    for (const double pct : grid_percents) {
      const GridTrialResult& r = results[i++];
      g.add_row({std::string(lut_coding_suffix(coding)), fmt_double(pct, 1),
                 fmt_double(r.report.percent_correct, 2),
                 std::to_string(r.control_corrupted)});
    }
  }
  g.print(std::cout);
  std::cout << "\nReading: TMR-coded control LUTs hold decision corruption "
               "near zero through 5% fault rates; uncoded control logic "
               "corrupts scheduling and routing decisions, which skips or "
               "recomputes instructions.\n";
  return 0;
}
