// bench_sweep — the parallel sweep engine bench. Runs the paper's full
// fault-injection protocol (18 percentages x 2 workloads x N trials)
// over a set of ALUs twice — once serially, once on the thread pool —
// verifies the two are bit-identical (both the data points and the
// fault-anatomy counters), and records wall-clock, speedup and
// throughput in BENCH_sweep.json, each point carrying its "metrics"
// anatomy block.
//
//   bench_sweep [--threads N] [--trials N] [--alus a,b,c] [--smoke]
//               [--out PATH] [--skip-serial] [--progress]
//               [--metrics-out PATH] [--trace-out PATH]
//
// --smoke shrinks the run (two ALUs, the 5-point smoke sweep) for the
// `bench_smoke` CI target; --skip-serial records only the parallel pass
// (no baseline, no verification) for quick measurements. --progress
// reports points done / trials-per-second / ETA on stderr.
// --metrics-out streams one JSONL record per (alu, fault%) point;
// --trace-out writes a chrome://tracing file of the parallel pass's
// per-stage timings. --registry-out/--registry-jsonl attach the runtime
// metrics registry (Prometheus exposition at exit / periodic JSONL);
// --profile-out writes the per-stage quantile profile as JSON.
#include <chrono>
#include <fstream>
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/thread_pool.hpp"
#include "fault/sweep.hpp"
#include "obs/profiler.hpp"
#include "obs/progress.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool identical(const std::vector<nbx::DataPoint>& a,
               const std::vector<nbx::DataPoint>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].mean_percent_correct != b[i].mean_percent_correct ||
        a[i].stddev != b[i].stddev || a[i].ci95 != b[i].ci95 ||
        a[i].samples != b[i].samples) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Paper-protocol fault sweep, run serially and on the thread pool,\n"
      "with the two passes verified bit-identical.",
      bench::kThreads | bench::kTrials | bench::kSeed | bench::kAlus |
          bench::kSmoke | bench::kProgress | bench::kSkipSerial |
          bench::kOut | bench::kMetricsOut | bench::kTraceOut |
          bench::kRegistry | bench::kProfileOut);
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "sweep");
  const bool smoke = cli.smoke();
  const bool skip_serial = cli.skip_serial();
  const bool want_progress = cli.progress();
  const std::string metrics_out = cli.metrics_out();
  const std::string trace_out = cli.trace_out();
  const unsigned threads = cli.threads();
  const int trials = cli.trials(smoke ? 2 : kPaperTrialsPerWorkload);
  const std::uint64_t seed = cli.seed(2026);

  std::vector<std::string> names = cli.alus();
  if (names.empty()) {
    if (smoke) {
      names = {"alunn", "aluss"};
    } else {
      for (const AluSpec& spec : table2_specs()) {
        names.push_back(spec.name);
      }
    }
  }
  for (const std::string& name : names) {
    if (!make_alu(name)) {
      std::cerr << "error: unknown ALU '" << name
                << "' (see bench_table2 for the valid names)\n";
      return 2;
    }
  }
  const std::vector<double> percents = smoke ? smoke_sweep() : paper_sweep();
  const auto streams = paper_streams(seed);
  const unsigned resolved = resolve_threads(threads);

  obs::Profiler profiler(/*capture_events=*/!trace_out.empty());
  ParallelConfig par{.threads = threads};
  par.profiler = &profiler;

  SweepSpec spec;
  spec.percents = percents;
  spec.trials_per_workload = trials;
  spec.seed = seed;

  std::cout << "Sweep engine bench: " << names.size() << " ALUs x "
            << percents.size() << " fault percentages x " << streams.size()
            << " workloads x " << trials << " trials, " << resolved
            << " threads\n\n";

  BenchReport report;
  report.bench = "sweep";
  report.seed = seed;
  report.threads = resolved;
  report.trials_per_workload = trials;

  const std::uint64_t trials_per_point =
      streams.size() * static_cast<std::uint64_t>(trials);

  double serial_seconds = 0.0;
  std::vector<SweepAnatomy> serial_results;
  if (!skip_serial) {
    obs::ProgressReporter serial_progress(std::cerr, "serial sweep",
                                     names.size() * percents.size(),
                                     trials_per_point);
    TrialEngine serial_engine{ParallelConfig{.threads = 1}};
    if (want_progress) {
      serial_engine.set_on_point([&] { serial_progress.tick(); });
    }
    const auto t0 = std::chrono::steady_clock::now();
    for (const std::string& name : names) {
      const auto alu = make_alu(name);
      serial_results.push_back(serial_engine.sweep_anatomy(*alu, streams,
                                                           spec));
    }
    serial_seconds = seconds_since(t0);
    serial_progress.finish();
  }

  obs::ProgressReporter progress(std::cerr, "parallel sweep",
                            names.size() * percents.size(), trials_per_point);
  TrialEngine engine(par);
  if (want_progress) {
    engine.set_on_point([&] { progress.tick(); });
  }
  const auto t0 = std::chrono::steady_clock::now();
  bool all_identical = true;
  bool metrics_identical = true;
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto alu = make_alu(names[i]);
    SweepAnatomy sweep = engine.sweep_anatomy(*alu, streams, spec);
    if (!skip_serial) {
      if (!identical(sweep.points, serial_results[i].points)) {
        all_identical = false;
        std::cout << "MISMATCH: parallel sweep of " << names[i]
                  << " differs from serial\n";
      }
      if (sweep.metrics != serial_results[i].metrics) {
        metrics_identical = false;
        std::cout << "MISMATCH: fault-anatomy counters of " << names[i]
                  << " differ between serial and parallel\n";
      }
    }
    report.sweeps.push_back(
        {names[i], std::move(sweep.points), std::move(sweep.metrics)});
  }
  const double parallel_seconds = seconds_since(t0);
  progress.finish();

  report.trials =
      names.size() * percents.size() * streams.size() *
      static_cast<std::size_t>(trials);
  report.wall_seconds = parallel_seconds;
  report.metrics.emplace_back("parallel_seconds", parallel_seconds);
  if (!skip_serial) {
    report.metrics.emplace_back("serial_seconds", serial_seconds);
    report.metrics.emplace_back(
        "speedup",
        parallel_seconds > 0.0 ? serial_seconds / parallel_seconds : 0.0);
  }
  // Per-stage latency quantiles from the profiler's log2 histograms.
  for (const obs::StageProfile& s : profiler.stages()) {
    report.metrics.emplace_back(s.name + "_p50_seconds",
                                s.hist.p50_seconds());
    report.metrics.emplace_back(s.name + "_p95_seconds",
                                s.hist.p95_seconds());
    report.metrics.emplace_back(s.name + "_p99_seconds",
                                s.hist.p99_seconds());
  }
  report.extra.emplace_back("mode", smoke ? "smoke" : "paper");
  report.extra.emplace_back("bit_identical",
                            skip_serial ? "unverified"
                                        : (all_identical ? "yes" : "NO"));
  report.extra.emplace_back(
      "metrics_identical",
      skip_serial ? "unverified" : (metrics_identical ? "yes" : "NO"));

  TextTable t({"metric", "value"});
  t.add_row({"trials", std::to_string(report.trials)});
  t.add_row({"threads", std::to_string(resolved)});
  if (!skip_serial) {
    t.add_row({"serial s", fmt_double(serial_seconds, 3)});
  }
  t.add_row({"parallel s", fmt_double(parallel_seconds, 3)});
  if (!skip_serial && parallel_seconds > 0.0) {
    t.add_row({"speedup", fmt_double(serial_seconds / parallel_seconds, 2)});
  }
  t.add_row({"trials/s", fmt_double(report.trials_per_second(), 1)});
  if (!skip_serial) {
    t.add_row({"bit-identical", all_identical ? "yes" : "NO"});
    t.add_row({"metrics-identical", metrics_identical ? "yes" : "NO"});
  }
  t.print(std::cout);

  std::cout << "\nStage profile (parallel pass):\n";
  profiler.write_summary(std::cout);

  if (!metrics_out.empty()) {
    std::ofstream mos(metrics_out);
    if (!mos) {
      std::cerr << "error: cannot open '" << metrics_out << "'\n";
      return 1;
    }
    for (const SweepRecord& s : report.sweeps) {
      for (std::size_t p = 0; p < s.points.size(); ++p) {
        mos << "{\"alu\":\"" << json_escape(s.alu) << "\",\"fault_percent\":"
            << json_double(s.points[p].fault_percent) << ",\"metrics\":";
        obs::write_counters_json(mos, s.point_metrics[p]);
        mos << "}\n";
      }
    }
    std::cout << "Wrote " << metrics_out << "\n";
  }
  if (!trace_out.empty()) {
    std::ofstream tos(trace_out);
    if (!tos) {
      std::cerr << "error: cannot open '" << trace_out << "'\n";
      return 1;
    }
    profiler.write_chrome_trace(tos);
    std::cout << "Wrote " << trace_out << " (chrome://tracing format)\n";
  }
  if (const std::string profile_out = cli.profile_out();
      !profile_out.empty()) {
    std::ofstream pos(profile_out);
    if (!pos) {
      std::cerr << "error: cannot open '" << profile_out << "'\n";
      return 1;
    }
    profiler.write_profile_json(pos);
    std::cout << "Wrote " << profile_out << "\n";
  }

  const std::string path = save_bench_json(report, cli.out());
  if (path.empty()) {
    std::cout << "\nFAILED to write bench JSON\n";
    return 1;
  }
  std::cout << "\nWrote " << path << "\n";
  return all_identical && metrics_identical ? 0 : 1;
}
