// bench_failover — system-level fault tolerance (paper §2.3 + future
// work 2): heartbeat monitoring, watchdog-driven cell disable, and
// salvage of outstanding work to neighbouring cells. Sweeps the number of
// killed cells and compares watchdog-on vs watchdog-off outcomes. Every
// configuration is one GridTrialSpec fanned out on the TrialEngine, so
// --threads runs them concurrently with bit-identical results.
#include <iostream>

#include "bench/bench_cli.hpp"
#include "common/thread_pool.hpp"
#include "grid/grid_trials.hpp"
#include "sim/table_render.hpp"
#include "workload/image_ops.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Failover & salvage: kills cells mid-compute on a 3x3 grid and\n"
      "compares watchdog-on vs watchdog-off outcomes, plus a dead-router\n"
      "variant where memory is unsalvageable.",
      bench::kThreads | bench::kProgress);
  if (cli.done()) {
    return cli.status();
  }
  Rng rng(11);
  const Bitmap image = Bitmap::random(16, 8, rng);  // 128 pixels on 3x3
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};

  std::cout << "Failover & salvage: killing cells mid-compute on a 3x3 "
               "grid (128 pixels, routers survive), "
            << resolve_threads(cli.threads()) << " thread(s)\n\n";
  const std::vector<CellId> victims = {
      CellId{1, 1}, CellId{2, 0}, CellId{0, 2}, CellId{1, 0}};

  std::vector<GridTrialSpec> specs;
  for (std::size_t kills = 0; kills <= victims.size(); ++kills) {
    for (const bool watchdog : {true, false}) {
      GridTrialSpec spec;
      spec.label = std::to_string(kills) + "-kills/" +
                   (watchdog ? "wd-on" : "wd-off");
      spec.rows = 3;
      spec.cols = 3;
      spec.image = image;
      spec.op = reverse_video_op();
      spec.options.enable_watchdog = watchdog;
      spec.options.watchdog_interval = 16;
      spec.options.compute_cycles = 600;
      for (std::size_t k = 0; k < kills; ++k) {
        spec.options.kills.push_back(KillEvent{victims[k], 4 + 2 * k, true});
      }
      specs.push_back(std::move(spec));
    }
  }
  // Dead-router variant: the same victims, but the router dies with the
  // cell, so its memory cannot be salvaged.
  const std::size_t dead_router_first = specs.size();
  for (std::size_t kills = 0; kills <= 2; ++kills) {
    GridTrialSpec spec;
    spec.label = std::to_string(kills) + "-kills/dead-router";
    spec.rows = 3;
    spec.cols = 3;
    spec.image = image;
    spec.op = reverse_video_op();
    spec.options.watchdog_interval = 16;
    spec.options.compute_cycles = 600;
    for (std::size_t k = 0; k < kills; ++k) {
      spec.options.kills.push_back(KillEvent{victims[k], 4, false});
    }
    specs.push_back(std::move(spec));
  }

  obs::ProgressReporter progress(std::cerr, "failover", specs.size(), 1);
  const std::vector<GridTrialResult> results =
      run_grid_trials(engine, specs, cli.progress() ? &progress : nullptr);
  progress.finish();

  TextTable t({"kills", "watchdog", "% correct", "missing", "salvaged",
               "lost", "disabled"});
  for (std::size_t i = 0; i < dead_router_first; ++i) {
    const GridRunReport& report = results[i].report;
    const std::size_t kills = i / 2;
    const bool watchdog = i % 2 == 0;
    t.add_row({std::to_string(kills), watchdog ? "on" : "off",
               fmt_double(report.percent_correct, 2),
               std::to_string(report.results_missing),
               std::to_string(report.watchdog.words_salvaged),
               std::to_string(report.watchdog.words_lost),
               std::to_string(report.watchdog.cells_disabled)});
  }
  t.print(std::cout);

  std::cout << "\nDead-router variant (memory unsalvageable):\n\n";
  TextTable d({"kills", "% correct", "missing", "lost"});
  for (std::size_t i = dead_router_first; i < results.size(); ++i) {
    const GridRunReport& report = results[i].report;
    d.add_row({std::to_string(i - dead_router_first),
               fmt_double(report.percent_correct, 2),
               std::to_string(report.results_missing),
               std::to_string(report.watchdog.words_lost)});
  }
  d.print(std::cout);
  std::cout << "\nReading: with the watchdog on and routers alive, salvage "
               "keeps accuracy at 100% despite multiple mid-compute cell "
               "deaths; without it, each dead cell's unfinished block is "
               "lost. Dead routers bound what any recovery can achieve.\n";
  return 0;
}
