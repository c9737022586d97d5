// bench_anatomy — the fault-anatomy bench. For each Table-2 ALU it runs
// the paper's trial protocol at a low / paper-headline / high injection
// rate ({0.5, 2, 10}%) with the observability sink attached and prints
// where every injected fault went: per-code decode outcomes (corrected,
// miscorrected, detected-uncorrectable, false-positive, undetected),
// module-level voting events, and the end-to-end silent-corruption vs
// caught-error split. The same numbers land in BENCH_anatomy.json as a
// per-point "metrics" block.
//
//   bench_anatomy [--trials N] [--alus a,b,c] [--smoke] [--out PATH]
//                 [--metrics-out PATH] [--threads N]
//
// Two built-in checks:
//   * determinism — the full counter set is recomputed under threads
//     {1, 8} x batch_lanes {0, 64} and must be bit-identical in all
//     four configurations (this gates the exit code);
//   * overhead — the aluss sweep is timed with the sink attached vs
//     detached; the attached run must stay within bounds (reported in
//     the JSON; informational on wall-clock-noisy machines).
// The same sink-on vs sink-off timing runs on the wide engine too (512
// lanes, one thread; aluss, alush and alusrs at 0.1% and 2%). It is
// reported, not held to the 5% budget.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "fault/sweep.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Sum one field over all five code layers.
std::uint64_t code_sum(const nbx::obs::Counters& c,
                       std::uint64_t nbx::obs::CodeLayerCounters::* f) {
  std::uint64_t s = 0;
  for (const auto& layer : c.code) {
    s += layer.*f;
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Fault anatomy at {0.5, 2, 10}% injected faults: per-code decode\n"
      "outcomes, module votes and the silent/caught split, with the\n"
      "counters verified bit-identical across engine configurations.",
      bench::kThreads | bench::kTrials | bench::kSeed | bench::kAlus |
          bench::kSmoke | bench::kOut | bench::kMetricsOut |
          bench::kRegistry);
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "anatomy");
  const bool smoke = cli.smoke();
  const int trials = cli.trials(smoke ? 2 : kPaperTrialsPerWorkload);
  const std::uint64_t seed = cli.seed(2026);
  const unsigned threads = cli.threads();
  const std::string metrics_out = cli.metrics_out();

  std::vector<std::string> names = cli.alus();
  if (names.empty()) {
    if (smoke) {
      names = {"alunh", "aluss"};
    } else {
      for (const AluSpec& spec : table2_specs()) {
        names.push_back(spec.name);
      }
    }
  }
  for (const std::string& name : names) {
    if (!make_alu(name)) {
      std::cerr << "error: unknown ALU '" << name << "'\n";
      return 2;
    }
  }
  const std::vector<double> percents = {0.5, 2.0, 10.0};
  const auto streams = paper_streams(seed);

  std::cout << "Fault anatomy: " << names.size() << " ALUs x {0.5, 2, 10}% "
            << "injected, " << streams.size() << " workloads x " << trials
            << " trials per point\n\n";

  BenchReport report;
  report.bench = "anatomy";
  report.seed = seed;
  report.threads = resolve_threads(threads);
  report.trials_per_workload = trials;

  SweepSpec spec;
  spec.percents = percents;
  spec.trials_per_workload = trials;
  spec.seed = seed;

  // ------------------------------------------------------------------
  // The anatomy itself (reference run: serial scalar engine), plus the
  // determinism cross-check in three other engine configurations.
  // ------------------------------------------------------------------
  const TrialEngine engines[] = {
      TrialEngine{ParallelConfig{.threads = 1}},  // serial scalar (ref)
      TrialEngine{ParallelConfig{.threads = 1, .batch_lanes = 64}},
      TrialEngine{ParallelConfig{.threads = 8}},  // 8 threads, scalar
      TrialEngine{ParallelConfig{.threads = 8, .batch_lanes = 64}},
  };
  bool deterministic = true;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<SweepAnatomy> anatomies;
  for (const std::string& name : names) {
    const auto alu = make_alu(name);
    SweepAnatomy ref = engines[0].sweep_anatomy(*alu, streams, spec);
    for (std::size_t c = 1; c < std::size(engines); ++c) {
      const SweepAnatomy alt = engines[c].sweep_anatomy(*alu, streams, spec);
      if (alt.metrics != ref.metrics) {
        deterministic = false;
        std::cout << "MISMATCH: counters of " << name << " differ at threads="
                  << engines[c].parallel().threads << " batch_lanes="
                  << engines[c].parallel().batch_lanes << "\n";
      }
    }
    anatomies.push_back(std::move(ref));
  }
  const double wall = seconds_since(t0);

  TextTable t({"alu", "fault%", "injected", "reads", "corr", "miscorr",
               "detect", "false+", "undet", "outvoted", "vself", "storage",
               "silent", "caught", "alarms"});
  for (std::size_t i = 0; i < names.size(); ++i) {
    for (std::size_t p = 0; p < percents.size(); ++p) {
      const obs::Counters& c = anatomies[i].metrics[p];
      t.add_row({names[i], fmt_double(percents[p], 1),
                 std::to_string(c.injection.faults_injected),
                 std::to_string(code_sum(c, &obs::CodeLayerCounters::reads)),
                 std::to_string(
                     code_sum(c, &obs::CodeLayerCounters::corrected)),
                 std::to_string(
                     code_sum(c, &obs::CodeLayerCounters::miscorrected)),
                 std::to_string(code_sum(
                     c, &obs::CodeLayerCounters::detected_uncorrectable)),
                 std::to_string(
                     code_sum(c, &obs::CodeLayerCounters::false_positive)),
                 std::to_string(
                     code_sum(c, &obs::CodeLayerCounters::undetected)),
                 std::to_string(c.module_level.copies_outvoted),
                 std::to_string(c.module_level.voter_self_faults),
                 std::to_string(c.module_level.storage_faults),
                 std::to_string(c.end_to_end.silent_corruptions),
                 std::to_string(c.end_to_end.caught_errors),
                 std::to_string(c.end_to_end.false_alarms)});
    }
  }
  t.print(std::cout);
  std::cout << "\nDeterminism (threads {1,8} x batch_lanes {0,64}): "
            << (deterministic ? "bit-identical" : "MISMATCH") << "\n";

  // ------------------------------------------------------------------
  // Overhead: aluss sweep with the sink attached vs detached, best of
  // three. The null-sink run is the production configuration — hooks
  // compile to one pointer test — so "off" should match the pre-
  // instrumentation engine to measurement noise.
  // ------------------------------------------------------------------
  // A fixed, larger trial count than the anatomy runs: sub-millisecond
  // samples drown in scheduler noise, ~50 ms ones don't.
  SweepSpec oh_spec;
  oh_spec.percents = {2.0};
  oh_spec.trials_per_workload = 50;
  oh_spec.seed = seed;
  const auto aluss = make_alu("aluss");
  double best_off = 1e100;
  double best_on = 1e100;
  for (int rep = 0; rep < 5; ++rep) {
    auto t_off = std::chrono::steady_clock::now();
    (void)engines[0].sweep(*aluss, streams, oh_spec);
    best_off = std::min(best_off, seconds_since(t_off));
    auto t_on = std::chrono::steady_clock::now();
    (void)engines[0].sweep_anatomy(*aluss, streams, oh_spec);
    best_on = std::min(best_on, seconds_since(t_on));
  }
  const double overhead_pct =
      best_off > 0.0 ? (best_on / best_off - 1.0) * 100.0 : 0.0;
  const bool overhead_ok = overhead_pct < 5.0;
  std::cout << "Overhead (aluss @ 2%, best of 5): sink off "
            << fmt_double(best_off * 1e3, 2) << " ms, sink on "
            << fmt_double(best_on * 1e3, 2) << " ms -> "
            << fmt_double(overhead_pct, 2) << "% ("
            << (overhead_ok ? "within" : "ABOVE") << " the 5% budget)\n";

  // ------------------------------------------------------------------
  // The same sink-on vs sink-off timing on the wide engine, 512 lanes,
  // one thread, best of 5: 1024 trials per workload fill two lane groups
  // a cell. Not gated yet — the Hamming and Reed-Solomon readers' per-read
  // classification popcounts still cost alush and alusrs tens of percent.
  // ------------------------------------------------------------------
  const TrialEngine wide_engine{
      ParallelConfig{.threads = 1, .batch_lanes = 512}};
  SweepSpec wide_spec;
  wide_spec.trials_per_workload = 1024;
  wide_spec.seed = seed;
  TextTable wt({"alu", "fault%", "sink off ms", "sink on ms", "overhead%"});
  for (const std::string name : {"aluss", "alush", "alusrs"}) {
    const auto alu = make_alu(name);
    for (const double pct : {0.1, 2.0}) {
      wide_spec.percents = {pct};
      double off = 1e100;
      double on = 1e100;
      for (int rep = 0; rep < 5; ++rep) {
        const auto t_off = std::chrono::steady_clock::now();
        (void)wide_engine.sweep(*alu, streams, wide_spec);
        off = std::min(off, seconds_since(t_off));
        const auto t_on = std::chrono::steady_clock::now();
        (void)wide_engine.sweep_anatomy(*alu, streams, wide_spec);
        on = std::min(on, seconds_since(t_on));
      }
      const double pct_over = off > 0.0 ? (on / off - 1.0) * 100.0 : 0.0;
      const std::string tag = name + "_" + fmt_double(pct, 1);
      report.metrics.emplace_back("wide512_sink_off_seconds_" + tag, off);
      report.metrics.emplace_back("wide512_sink_on_seconds_" + tag, on);
      report.metrics.emplace_back("wide512_overhead_percent_" + tag,
                                  pct_over);
      wt.add_row({name, fmt_double(pct, 1), fmt_double(off * 1e3, 2),
                  fmt_double(on * 1e3, 2), fmt_double(pct_over, 1)});
    }
  }
  std::cout << "Wide-engine overhead (512 lanes, one thread, best of 5; "
               "reported, not gated):\n";
  wt.print(std::cout);

  // ------------------------------------------------------------------
  // Metrics registry: same discipline as the sink — attaching the
  // process-wide MetricsRegistry must leave the numbers bit-identical
  // and cost < 5% on the same best-of-5 protocol.
  // ------------------------------------------------------------------
  const std::vector<DataPoint> points_off =
      engines[0].sweep(*aluss, streams, oh_spec);
  double best_reg = 1e100;
  std::vector<DataPoint> points_reg;
  {
    obs::MetricsRegistry registry;
    const obs::ScopedMetricsRegistry attach(&registry);
    for (int rep = 0; rep < 5; ++rep) {
      const auto t_reg = std::chrono::steady_clock::now();
      points_reg = engines[0].sweep(*aluss, streams, oh_spec);
      best_reg = std::min(best_reg, seconds_since(t_reg));
    }
  }
  bool registry_identical = points_reg.size() == points_off.size();
  for (std::size_t i = 0; registry_identical && i < points_off.size(); ++i) {
    registry_identical =
        points_off[i].mean_percent_correct ==
            points_reg[i].mean_percent_correct &&
        points_off[i].stddev == points_reg[i].stddev &&
        points_off[i].samples == points_reg[i].samples;
  }
  const double registry_overhead_pct =
      best_off > 0.0 ? (best_reg / best_off - 1.0) * 100.0 : 0.0;
  const bool registry_ok = registry_overhead_pct < 5.0;
  std::cout << "Registry overhead (aluss @ 2%, best of 5): off "
            << fmt_double(best_off * 1e3, 2) << " ms, attached "
            << fmt_double(best_reg * 1e3, 2) << " ms -> "
            << fmt_double(registry_overhead_pct, 2) << "% ("
            << (registry_ok ? "within" : "ABOVE") << " the 5% budget), "
            << "results "
            << (registry_identical ? "bit-identical" : "MISMATCH") << "\n";

  report.trials = names.size() * percents.size() * streams.size() *
                  static_cast<std::size_t>(trials);
  report.wall_seconds = wall;
  report.metrics.emplace_back("overhead_percent", overhead_pct);
  report.metrics.emplace_back("sink_off_seconds", best_off);
  report.metrics.emplace_back("sink_on_seconds", best_on);
  report.metrics.emplace_back("registry_overhead_percent",
                              registry_overhead_pct);
  report.metrics.emplace_back("registry_on_seconds", best_reg);
  report.extra.emplace_back("mode", smoke ? "smoke" : "paper");
  report.extra.emplace_back("counters_deterministic",
                            deterministic ? "yes" : "NO");
  report.extra.emplace_back("overhead_within_5pct",
                            overhead_ok ? "yes" : "NO");
  report.extra.emplace_back("registry_identical",
                            registry_identical ? "yes" : "NO");
  report.extra.emplace_back("registry_within_5pct",
                            registry_ok ? "yes" : "NO");
  for (std::size_t i = 0; i < names.size(); ++i) {
    report.sweeps.push_back({names[i], std::move(anatomies[i].points),
                             std::move(anatomies[i].metrics)});
  }

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

  const std::string path = save_bench_json(report, cli.out());
  if (path.empty()) {
    std::cout << "\nFAILED to write bench JSON\n";
    return 1;
  }
  std::cout << "\nWrote " << path << "\n";
  return deterministic && registry_identical ? 0 : 1;
}
