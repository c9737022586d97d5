// bench_wafer — wafer-scale defect-map Monte Carlo with the paired
// adaptive-remap sweep. For each defect density it manufactures a
// population of wafers (3x3 grids, per-cell stuck-at DefectMaps, a small
// transient overlay on top) and pushes every wafer through the full
// control-processor / watchdog failover machinery twice from the SAME
// manufacture seeds:
//
//   * oblivious — storage sits where it lands; known-bad fabric
//     computes anyway (spares are manufactured but unused);
//   * remap     — defect-aware placement (fault/remap.hpp) routes each
//     cell's storage around its known defects via the spare pool, and
//     cells whose defects exceed the pool are condemned up front so the
//     §2.3 salvage machinery works around them.
//
// The headline metric, remap_delta_mean_correct, is the reliability the
// placement step recovers — Lawson & Wolpert's measurement for the
// NanoBox fabric. Results land in BENCH_wafer.json.
//
//   bench_wafer [--wafers N] [--threads N] [--seed S] [--smoke]
//               [--out PATH]
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "alu/lut_core_alu.hpp"
#include "bench/bench_cli.hpp"
#include "bench/bench_registry.hpp"
#include "common/thread_pool.hpp"
#include "grid/wafer_study.hpp"
#include "sim/bench_json.hpp"
#include "sim/table_render.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Wafer-scale defect Monte Carlo through grid failover: yield and\n"
      "salvage distributions per defect density, with the paired\n"
      "defect-aware remap run reporting the reliability recovered over\n"
      "oblivious placement.",
      bench::kThreads | bench::kSeed | bench::kSmoke | bench::kOut |
          bench::kRegistry,
      {{"--wafers N", "wafers per (density, placement) population"}});
  if (cli.done()) {
    return cli.status();
  }
  bench::ScopedBenchRegistry bench_registry(cli, "wafer");
  const bool smoke = cli.smoke();
  const std::uint64_t seed = cli.seed(2026);
  const unsigned threads = cli.threads();
  const std::size_t wafers = static_cast<std::size_t>(
      cli.args().get_int("wafers", smoke ? 12 : 120));
  const std::vector<double> densities =
      smoke ? std::vector<double>{0.02}
            : std::vector<double>{0.005, 0.02, 0.05};

  // One cell archetype across the bench: TMR-coded LUT ALU with a spare
  // pool an eighth of its logical fabric, a light transient overlay, and
  // §2.3 self-disable on masked-fault buildup so sick cells hand their
  // work to the watchdog.
  const std::size_t logical_sites = LutCoreAlu(LutCoding::kTmr).fault_sites();
  CellConfig cell;
  cell.alu_coding = LutCoding::kTmr;
  cell.alu_fault_percent = 0.5;
  cell.alu_spare_sites = logical_sites / 8;
  cell.count_masked_faults = true;
  cell.error_threshold = 400;

  const TrialEngine engine{ParallelConfig{.threads = threads}};

  std::cout << "Wafer study: " << wafers << " wafers per population, 3x3 "
            << "grids, TMR cells (" << logical_sites << " logical + "
            << cell.alu_spare_sites << " spare sites), 0.5% transient "
            << "overlay\n\n";

  BenchReport report;
  report.bench = "wafer";
  report.seed = seed;
  report.threads = resolve_threads(threads);
  report.trials = wafers * densities.size() * 2;

  TextTable t({"density", "placement", "yield", "mean %corr",
               "mean defects", "residue", "condemned", "disabled"});
  const auto t0 = std::chrono::steady_clock::now();
  double headline_delta_correct = 0.0;
  double headline_delta_yield = 0.0;
  for (const double density : densities) {
    WaferSpec spec;
    spec.wafers = wafers;
    spec.cell = cell;
    spec.cell.alu_defect_density = density;
    spec.seed = seed;
    spec.yield_threshold = 95.0;

    WaferSpec remap = spec;
    remap.cell.remap_defects = true;
    remap.condemn_infeasible = true;

    const WaferStudy oblivious = run_wafer_study(engine, spec);
    const WaferStudy adaptive = run_wafer_study(engine, remap);

    const auto row = [&](const char* placement, const WaferStudy& s) {
      double condemned = 0.0;
      for (const WaferOutcome& w : s.wafers) {
        condemned += static_cast<double>(w.cells_condemned);
      }
      condemned /= static_cast<double>(s.wafers.size());
      t.add_row({fmt_double(density * 100.0, 1) + "%", placement,
                 fmt_double(s.yield * 100.0, 1) + "%",
                 fmt_double(s.mean_percent_correct, 2),
                 fmt_double(s.mean_manufactured_defects, 1),
                 fmt_double(s.mean_effective_defects, 1),
                 fmt_double(condemned, 2),
                 fmt_double(s.mean_cells_disabled, 2)});
    };
    row("oblivious", oblivious);
    row("remap", adaptive);

    const std::string tag = "d" + fmt_double(density * 1000.0, 0);
    report.metrics.emplace_back(tag + "_yield_oblivious", oblivious.yield);
    report.metrics.emplace_back(tag + "_yield_remap", adaptive.yield);
    report.metrics.emplace_back(tag + "_mean_correct_oblivious",
                                oblivious.mean_percent_correct);
    report.metrics.emplace_back(tag + "_mean_correct_remap",
                                adaptive.mean_percent_correct);
    report.metrics.emplace_back(tag + "_residue_defects_remap",
                                adaptive.mean_effective_defects);
    if (density == densities.front() || density == 0.02) {
      headline_delta_correct = adaptive.mean_percent_correct -
                               oblivious.mean_percent_correct;
      headline_delta_yield = adaptive.yield - oblivious.yield;
    }
  }
  const double wall = seconds_since(t0);
  t.print(std::cout);

  std::cout << "\nReliability recovered by defect-aware placement "
            << "(headline density): mean %correct +"
            << fmt_double(headline_delta_correct, 3) << ", yield "
            << (headline_delta_yield >= 0 ? "+" : "")
            << fmt_double(headline_delta_yield * 100.0, 1) << " points\n";

  report.wall_seconds = wall;
  report.metrics.emplace_back("remap_delta_mean_correct",
                              headline_delta_correct);
  report.metrics.emplace_back("remap_delta_yield", headline_delta_yield);
  report.extra.emplace_back("placement", "oblivious-vs-remap, same seeds");
  report.extra.emplace_back("grid", "3x3");

  if (!cli.out().empty()) {
    const std::string path = save_bench_json(report, cli.out());
    std::cout << "\nwrote " << path << "\n";
  }
  return 0;
}
