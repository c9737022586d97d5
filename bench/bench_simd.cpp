// bench_simd — throughput of the SIMD-wide lane engine across dispatch
// tiers and lane widths, with an enforceable regression gate.
//
// For every compiled-in + CPU-supported dispatch tier (scalar / AVX2 /
// AVX-512, forced one at a time) and every power-of-two row width (64,
// 128, 256, 512 lanes) the same data point runs through the wide
// engine; the scalar trial engine provides the same-run baseline. All
// throughput comparisons are machine-relative ratios measured in one
// process invocation, so the gate needs no absolute trials/second
// calibration per machine:
//
//   speedup_512v64          — 512-lane vs 64-lane wide engine, active
//                             tier;
//   wide512_vs_scalar       — 512-lane wide engine vs the scalar engine;
//   mask_vs_scalar_generate — the mask layer: the scalar generator's time
//                             (MaskGenerator::generate, the scalar
//                             engine's call) for one trial's masks over
//                             the wide engine's mask time per trial,
//                             1/tps(2%) - 1/tps(0%), on the first ALU at
//                             512 lanes, active tier, whatever --percent
//                             is.
//
// The default fault percentage is low (0.1%) on purpose: masks then
// carry a handful of faults, the mux-tree evaluation dominates, and
// width pays. At the paper's 2% most of a trial goes to the mask layer:
// per instruction every lane draws ~100 fault sites (the lockstep
// xoshiro/Floyd kernel) and sets them in the transposed mask, a random
// test-and-set per site. The two rates evaluate the same streams, so the
// difference of their per-trial times is the mask layer's cost, and the
// scalar generator drawing the same masks is a reference that no
// evaluation speedup moves: mask_vs_scalar_generate falls as mask
// generation gets slower, whatever the evaluation does.
//
// Every timed wide-engine point must be bit-identical to the scalar
// engine's (mean, stddev, ci95, samples) at every tier x width; a
// divergence exits 1, independent of --gate.
//
//   bench_simd [--trials N] [--percent P] [--seed N] [--alus a,b]
//              [--smoke] [--out PATH] [--gate PATH]
//
// --percent and --trials outside [0, 100] and [1, 10^6] exit 2.
// --gate PATH reads floors from a JSON file (bench/perf_floor.json in
// the source tree; see docs/TESTING.md) and exits 1 when a measured
// headline ratio lands below its floor. Results append to
// BENCH_simd.json.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/batch_bitvec.hpp"
#include "fault/mask_generator.hpp"
#include "fault/sweep.hpp"
#include "sim/bench_json.hpp"
#include "sim/table_render.hpp"
#include "sim/trial_engine.hpp"
#include "simd/simd_dispatch.hpp"

namespace {

using namespace nbx;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// One data point timed best-of-N: its throughput, the point itself
/// (every repetition computes the same one) and the summed wall time.
struct Timed {
  double tps = 0.0;
  DataPoint point;
  double seconds = 0.0;
};

Timed measure_tps(const TrialEngine& engine, const IAlu& alu,
                  const std::vector<std::vector<Instruction>>& streams,
                  const SweepSpec& spec, int repetitions) {
  const double trials_total =
      static_cast<double>(spec.trials_per_workload) *
      static_cast<double>(streams.size());
  Timed t;
  for (int rep = 0; rep < repetitions; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    t.point = engine.point(alu, streams, spec);
    const double s = seconds_since(t0);
    t.seconds += s;
    if (s > 0.0) {
      t.tps = std::max(t.tps, trials_total / s);
    }
  }
  return t;
}

/// Rounds of the mask layer's three timings. They are a difference and a
/// ratio of short runs, so each takes the best of more runs than the
/// table's points.
constexpr int kMaskRounds = 9;

/// Seconds for the scalar generator to draw `masks` masks of `gen`, one
/// MaskGenerator::generate call each, as the scalar engine draws them.
double scalar_generate_seconds(const MaskGenerator& gen, std::size_t masks) {
  BitVec mask(gen.sites());
  Rng rng(2026);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < masks; ++i) {
    gen.generate(rng, mask);
  }
  return seconds_since(t0);
}

/// Bit-identity of two points: EXPECT_EQ-style, not within a tolerance.
bool same_point(const DataPoint& a, const DataPoint& b) {
  return a.mean_percent_correct == b.mean_percent_correct &&
         a.stddev == b.stddev && a.ci95 == b.ci95 && a.samples == b.samples;
}

/// Minimal floor-file reader: finds `"key"` and parses the number after
/// the colon. The floor file is ours (bench/perf_floor.json), not
/// arbitrary JSON. Returns 0 when the key is absent (no gate on it).
double floor_value(const std::string& text, const std::string& key) {
  const std::size_t at = text.find("\"" + key + "\"");
  if (at == std::string::npos) {
    return 0.0;
  }
  const std::size_t colon = text.find(':', at);
  if (colon == std::string::npos) {
    return 0.0;
  }
  return std::strtod(text.c_str() + colon + 1, nullptr);
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchCli cli(
      argc, argv,
      "Wide lane engine throughput per SIMD dispatch tier and lane width,\n"
      "relative to the same-run scalar engine; --gate enforces the\n"
      "committed perf floors (machine-relative ratios).",
      bench::kTrials | bench::kSeed | bench::kAlus | bench::kSmoke |
          bench::kOut | bench::kRegistry,
      {{"--percent P",
        "fault percentage (default 0.1; low = evaluation-dominated)"},
       {"--gate PATH", "enforce perf floors from PATH (exit 1 below floor)"}});
  if (cli.done()) {
    return cli.status();
  }
  const std::string bad_value = sweep_flag_message(cli.args());
  if (!bad_value.empty()) {
    std::cerr << cli.args().program() << ": " << bad_value << "\n";
    return 2;
  }
  bench::ScopedBenchRegistry bench_registry(cli, "simd");
  const bool smoke = cli.smoke();
  const int trials = cli.trials(smoke ? 512 : 2048);
  const double percent = cli.args().get_double("percent", 0.1);
  const std::uint64_t seed = cli.seed(2026);
  const std::string gate_path = cli.args().get("gate");
  const int repetitions = 2;

  std::vector<std::string> names = cli.alus();
  if (names.empty()) {
    names = {"aluss"};  // the paper's headline ALU = the hot path
  }
  for (const std::string& name : names) {
    if (!make_alu(name)) {
      std::cerr << "error: unknown ALU '" << name
                << "' (see bench_table2 for the valid names)\n";
      return 2;
    }
  }

  const auto streams = paper_streams(seed);
  SweepSpec spec;
  spec.percents = {percent};
  spec.trials_per_workload = trials;
  spec.seed = seed;

  const simd::SimdTier active = simd::active_tier();
  std::cout << "SIMD lane engine bench: " << names.size() << " ALUs x "
            << streams.size() << " workloads x " << trials << " trials @ "
            << percent << "% faults, active tier "
            << simd::tier_name(active) << "\n\n";

  BenchReport report;
  report.bench = "simd";
  report.seed = seed;
  report.threads = 1;
  report.trials_per_workload = trials;
  report.metrics.emplace_back("fault_percent", percent);

  constexpr unsigned kWidths[] = {64, 128, 256, 512};
  constexpr simd::SimdTier kTiers[] = {simd::SimdTier::kScalar,
                                       simd::SimdTier::kAvx2,
                                       simd::SimdTier::kAvx512};

  // The headline ratios come from the FIRST ALU (aluss by default).
  double headline_512v64 = 0.0;
  double headline_wide_vs_scalar = 0.0;
  bool all_identical = true;
  double wall_total = 0.0;
  std::size_t trials_total = 0;
  const std::size_t trials_per_measure = static_cast<std::size_t>(trials) *
                                         streams.size() *
                                         static_cast<std::size_t>(repetitions);

  for (const std::string& name : names) {
    const auto alu = make_alu(name);

    // Same-run scalar-engine baseline (batch_lanes = 0): the throughput
    // reference and the point every wide run must reproduce bit for bit.
    const TrialEngine scalar_engine{ParallelConfig{.threads = 1}};
    const Timed scalar =
        measure_tps(scalar_engine, *alu, streams, spec, repetitions);
    const double scalar_tps = scalar.tps;
    wall_total += scalar.seconds;
    trials_total += trials_per_measure;
    report.metrics.emplace_back("scalar_trials_per_second_" + name,
                                scalar_tps);

    TextTable t({"tier", "lanes", "trials/s", "vs scalar", "512v64"});
    for (const simd::SimdTier tier : kTiers) {
      if (!simd::tier_supported(tier)) {
        continue;
      }
      const simd::ScopedTierOverride forced(tier);
      double tps64 = 0.0;
      double tps512 = 0.0;
      for (const unsigned lanes : kWidths) {
        ParallelConfig par;
        par.batch_lanes = lanes;
        const TrialEngine wide_engine(par);
        const Timed wide =
            measure_tps(wide_engine, *alu, streams, spec, repetitions);
        const double tps = wide.tps;
        wall_total += wide.seconds;
        trials_total += trials_per_measure;
        if (!same_point(wide.point, scalar.point)) {
          all_identical = false;
          std::cout << "DIVERGED: " << name << " on tier "
                    << simd::tier_name(tier) << " at " << lanes
                    << " lanes differs from the scalar engine\n";
        }
        if (lanes == 64) {
          tps64 = tps;
        }
        if (lanes == 512) {
          tps512 = tps;
        }
        const std::string tag = std::string(simd::tier_name(tier)) + "_" +
                                std::to_string(lanes);
        report.metrics.emplace_back("tps_" + tag + "_" + name, tps);
        t.add_row({std::string(simd::tier_name(tier)),
                   std::to_string(lanes), fmt_double(tps, 0),
                   fmt_double(scalar_tps > 0.0 ? tps / scalar_tps : 0.0, 2),
                   lanes == 512 && tps64 > 0.0
                       ? fmt_double(tps / tps64, 2)
                       : ""});
      }
      const double ratio_512v64 = tps64 > 0.0 ? tps512 / tps64 : 0.0;
      const double wide_vs_scalar =
          scalar_tps > 0.0 ? tps512 / scalar_tps : 0.0;
      report.metrics.emplace_back(
          "speedup_512v64_" + std::string(simd::tier_name(tier)) + "_" +
              name,
          ratio_512v64);
      report.metrics.emplace_back(
          "wide512_vs_scalar_" + std::string(simd::tier_name(tier)) + "_" +
              name,
          wide_vs_scalar);
      if (tier == active && name == names.front()) {
        headline_512v64 = ratio_512v64;
        headline_wide_vs_scalar = wide_vs_scalar;
      }
    }
    std::cout << name << " (scalar engine " << fmt_double(scalar_tps, 0)
              << " trials/s):\n";
    t.print(std::cout);
    std::cout << "\n";
  }

  // The mask layer: the first ALU at 512 lanes on the active tier at 2%
  // and at 0% faults, and the scalar generator drawing the same 2% masks.
  // The three are timed in turn, kMaskRounds rounds, best of each, so
  // contention from the rest of the host hits all three alike.
  double tps_2pct = 0.0;
  double tps_0pct = 0.0;
  double scalar_mask_s = 0.0;
  {
    const auto alu = make_alu(names.front());
    ParallelConfig par;
    par.batch_lanes = 512;
    const TrialEngine wide_engine(par);
    SweepSpec at_2pct = spec;
    at_2pct.percents = {2.0};
    SweepSpec at_0pct = spec;
    at_0pct.percents = {0.0};
    const MaskGenerator gen(alu->fault_sites(), 2.0);
    std::size_t masks = 0;
    for (const auto& s : streams) {
      masks += s.size() * static_cast<std::size_t>(trials);
    }
    double scalar_s = 1e100;
    for (int round = 0; round < kMaskRounds; ++round) {
      const Timed t2 = measure_tps(wide_engine, *alu, streams, at_2pct, 1);
      const Timed t0 = measure_tps(wide_engine, *alu, streams, at_0pct, 1);
      const double g = scalar_generate_seconds(gen, masks);
      tps_2pct = std::max(tps_2pct, t2.tps);
      tps_0pct = std::max(tps_0pct, t0.tps);
      scalar_s = std::min(scalar_s, g);
      wall_total += t2.seconds + t0.seconds;
    }
    scalar_mask_s =
        scalar_s / static_cast<double>(static_cast<std::size_t>(trials) *
                                       streams.size());
    trials_total += 2 * static_cast<std::size_t>(trials) * streams.size() *
                    static_cast<std::size_t>(kMaskRounds);
  }
  const double wide_mask_s =
      tps_2pct > 0.0 && tps_0pct > 0.0 ? 1.0 / tps_2pct - 1.0 / tps_0pct
                                       : 0.0;
  const double mask_ratio = wide_mask_s > 0.0 ? scalar_mask_s / wide_mask_s
                                              : 0.0;
  std::cout << "mask layer (" << names.front() << ", 512 lanes, tier "
            << simd::tier_name(active) << "): " << fmt_double(tps_2pct, 0)
            << " trials/s at 2% vs " << fmt_double(tps_0pct, 0)
            << " at 0% = " << fmt_double(wide_mask_s * 1e6, 2)
            << " us of masks per trial; scalar generator "
            << fmt_double(scalar_mask_s * 1e6, 2) << " us -> "
            << fmt_double(mask_ratio, 3) << "\n";

  report.trials = trials_total;
  report.wall_seconds = wall_total;
  report.metrics.emplace_back("speedup_512v64", headline_512v64);
  report.metrics.emplace_back("wide512_vs_scalar",
                              headline_wide_vs_scalar);
  report.metrics.emplace_back("tps_mask_2pct", tps_2pct);
  report.metrics.emplace_back("tps_mask_0pct", tps_0pct);
  report.metrics.emplace_back("wide_mask_us_per_trial", wide_mask_s * 1e6);
  report.metrics.emplace_back("scalar_mask_us_per_trial",
                              scalar_mask_s * 1e6);
  report.metrics.emplace_back("mask_vs_scalar_generate", mask_ratio);
  report.extra.emplace_back("mode", smoke ? "smoke" : "full");
  report.extra.emplace_back("active_tier",
                            std::string(simd::tier_name(active)));
  report.extra.emplace_back(
      "best_tier", std::string(simd::tier_name(simd::best_tier())));
  report.extra.emplace_back("bit_identical", all_identical ? "yes" : "NO");

  std::cout << "headline (tier " << simd::tier_name(active)
            << "): 512v64 " << fmt_double(headline_512v64, 2)
            << "x, wide512 vs scalar engine "
            << fmt_double(headline_wide_vs_scalar, 2) << "x\n";

  int status = all_identical ? 0 : 1;
  if (!all_identical) {
    std::cout << "FAILED: wide engine diverged from the scalar engine\n";
  }

  if (!gate_path.empty()) {
    std::ifstream in(gate_path);
    std::stringstream ss;
    ss << in.rdbuf();
    if (!in.good() && ss.str().empty()) {
      std::cerr << "error: cannot read perf floor file '" << gate_path
                << "'\n";
      return 2;
    }
    const std::string floors = ss.str();
    const double min_512v64 = floor_value(floors, "speedup_512v64_min");
    const double min_wide = floor_value(floors, "wide512_vs_scalar_min");
    // The mask floor is per tier: the lockstep kernel's vector width is
    // the tier's, while the scalar reference is the same on every tier.
    const double min_mask = floor_value(
        floors, "mask_vs_scalar_generate_min_" +
                    std::string(simd::tier_name(active)));
    const bool ok_512v64 =
        min_512v64 <= 0.0 || headline_512v64 >= min_512v64;
    const bool ok_wide =
        min_wide <= 0.0 || headline_wide_vs_scalar >= min_wide;
    const bool ok_mask = min_mask <= 0.0 || mask_ratio >= min_mask;
    std::cout << "perf gate (" << gate_path << "): 512v64 "
              << fmt_double(headline_512v64, 2) << "x vs floor "
              << fmt_double(min_512v64, 2) << "x "
              << (ok_512v64 ? "PASS" : "FAIL") << ", wide512-vs-scalar "
              << fmt_double(headline_wide_vs_scalar, 2) << "x vs floor "
              << fmt_double(min_wide, 2) << "x "
              << (ok_wide ? "PASS" : "FAIL") << ", mask vs scalar generate "
              << fmt_double(mask_ratio, 3) << " vs floor "
              << fmt_double(min_mask, 3) << " "
              << (ok_mask ? "PASS" : "FAIL") << "\n";
    const bool ok = ok_512v64 && ok_wide && ok_mask;
    report.extra.emplace_back("gate", ok ? "pass" : "FAIL");
    if (!ok) {
      status = 1;
    }
  }

  const std::string path = save_bench_json(report, cli.out());
  if (path.empty()) {
    std::cout << "\nFAILED to write bench JSON\n";
    return 1;
  }
  std::cout << "Wrote " << path << "\n";
  return status;
}
