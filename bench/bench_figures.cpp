// bench_figures — regenerates one of the paper's result figures (7, 8 or
// 9) with the full paper protocol: 18 injected-fault percentages, two
// image workloads (reverse video, hue shift), five trials each, mean of
// ten samples per point. Compile with -DNBX_FIGURE={7,8,9}.
//
// Output: the figure as a table (rows = fault %, columns = the four ALU
// series), the per-point standard deviations, a CSV block for plotting,
// and a paper-vs-measured check of every §5 prose anchor for this figure.
#include <chrono>
#include <iostream>

#include "bench/bench_cli.hpp"
#include "common/thread_pool.hpp"
#include "obs/progress.hpp"
#include "fault/sweep.hpp"
#include "sim/bench_json.hpp"
#include "sim/figure.hpp"
#include "sim/table_render.hpp"

#ifndef NBX_FIGURE
#define NBX_FIGURE 7
#endif

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Reproduces one paper figure (set at compile time via NBX_FIGURE)\n"
      "with the full 18-point, two-workload, five-trial protocol.",
      bench::kThreads | bench::kTrials | bench::kSeed | bench::kProgress |
          bench::kOut);
  if (cli.done()) {
    return cli.status();
  }
  const FigureSpec spec = NBX_FIGURE == 7   ? figure7_spec()
                          : NBX_FIGURE == 8 ? figure8_spec()
                                            : figure9_spec();
  const int trials = cli.trials(kPaperTrialsPerWorkload);
  const std::uint64_t seed = cli.seed(2026);
  // All hardware threads by default; per-trial counter-based seeding
  // keeps the output bit-identical to a serial run.
  const ParallelConfig par{.threads = cli.threads()};
  std::cout << "Reproducing " << spec.id << " — " << spec.title << "\n";
  std::cout << "Protocol: " << kPaperFaultPercentages.size()
            << " fault percentages x 2 workloads x " << trials
            << " trials (10 samples per point), 64 instructions each, "
            << resolve_threads(par.threads) << " threads\n\n";

  // --progress: live stderr line (points done, trials/s, ETA). The
  // figure is evaluated point-by-point in that mode; numbers are
  // bit-identical either way.
  obs::ProgressReporter progress(
      std::cerr, spec.id, spec.alus.size() * paper_sweep().size(),
      2 * static_cast<std::uint64_t>(trials));
  const bool want_progress = cli.progress();
  const auto t0 = std::chrono::steady_clock::now();
  const FigureResult fig = run_figure(
      spec, paper_sweep(), trials, seed, par,
      want_progress ? std::function<void()>([&] { progress.tick(); })
                    : std::function<void()>{});
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  progress.finish();
  print_figure(std::cout, fig);

  // Standard-deviation digest (the paper: stddev < 10 points for all but
  // six of the 216 points, max 24.51).
  double max_sd = 0.0;
  int above_10 = 0;
  for (const auto& series : fig.series) {
    for (const DataPoint& p : series) {
      max_sd = std::max(max_sd, p.stddev);
      if (p.stddev > 10.0) {
        ++above_10;
      }
    }
  }
  std::cout << "\nStddev digest: max " << fmt_double(max_sd, 2) << ", "
            << above_10 << "/" << 4 * fig.percents.size()
            << " points above 10.0 (paper: max 24.51, 6/216 across all "
               "figures)\n";

  std::cout << "\nPaper-vs-measured anchors (" << spec.id << "):\n";
  TextTable anchors(
      {"alu", "fault%", "measured", "paper band", "ok", "claim"});
  bool all_ok = true;
  for (const PaperAnchor& a : paper_anchors()) {
    if (a.figure != spec.id) {
      continue;
    }
    double measured = 0.0;
    if (!lookup_measured(fig, a, &measured)) {
      continue;
    }
    const bool ok = measured >= a.min_percent_correct &&
                    measured <= a.max_percent_correct;
    all_ok = all_ok && ok;
    anchors.add_row({a.alu, fmt_double(a.fault_percent, 2),
                     fmt_double(measured, 2),
                     "[" + fmt_double(a.min_percent_correct, 0) + "," +
                         fmt_double(a.max_percent_correct, 0) + "]",
                     ok ? "yes" : "NO", a.claim});
  }
  anchors.print(std::cout);

  std::cout << "\nCSV:\n";
  write_figure_csv(std::cout, fig);

  BenchReport report;
  report.bench = spec.id;
  report.seed = seed;
  report.threads = resolve_threads(par.threads);
  report.trials_per_workload = trials;
  report.trials = fig.spec.alus.size() * fig.percents.size() * 2 *
                  static_cast<std::size_t>(trials);
  report.wall_seconds = wall;
  report.metrics.emplace_back("max_stddev", max_sd);
  report.metrics.emplace_back("points_above_10_stddev",
                              static_cast<double>(above_10));
  report.extra.emplace_back("anchors_ok", all_ok ? "yes" : "NO");
  for (std::size_t s = 0; s < fig.spec.alus.size(); ++s) {
    report.sweeps.push_back({fig.spec.alus[s], fig.series[s]});
  }
  const std::string path = save_bench_json(report, cli.out());
  std::cout << "\nWrote " << (path.empty() ? "NOTHING (json failed)" : path)
            << "\n";
  std::cout << "All anchors within band: " << (all_ok ? "yes" : "NO")
            << "\n";
  return all_ok && !path.empty() ? 0 : 1;
}
