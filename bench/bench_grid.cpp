// bench_grid — cycle-accurate full-system characterization (future work
// 3): phase latencies and throughput of the NanoBox grid as it scales,
// plus end-to-end image accuracy versus per-cell ALU fault rate. Every
// grid configuration is one GridTrialSpec run on the unified TrialEngine
// (--threads fans them out with bit-identical results).
//
//   bench_grid [--threads N] [--progress] [--trace-out PATH]
//              [--trace-cap N] [--metrics-out PATH]
//
// --trace-out streams every grid trace event of the accuracy section as
// JSONL while it happens (the in-memory ring is capped at --trace-cap
// records, default 4096, so long runs stay bounded; evictions are
// reported); the shared trace sink forces the engine serial.
// --metrics-out writes one JSONL record per data point with the full
// GridRunReport.
#include <cmath>
#include <fstream>
#include <iostream>

#include "bench/bench_cli.hpp"
#include "cell/trace.hpp"
#include "common/thread_pool.hpp"
#include "grid/grid_trials.hpp"
#include "obs/json.hpp"
#include "sim/table_render.hpp"
#include "workload/image_metrics.hpp"
#include "workload/image_ops.hpp"

namespace {

void write_report_jsonl(std::ostream& os, const char* section,
                        const std::string& label, double fault_percent,
                        const nbx::GridRunReport& r) {
  using nbx::json_double;
  os << "{\"section\":\"" << section << "\",\"label\":\""
     << nbx::json_escape(label)
     << "\",\"alu_fault_percent\":" << json_double(fault_percent)
     << ",\"instructions\":" << r.instructions
     << ",\"results_received\":" << r.results_received
     << ",\"results_correct\":" << r.results_correct
     << ",\"results_missing\":" << r.results_missing
     << ",\"percent_correct\":" << json_double(r.percent_correct)
     << ",\"shift_in_cycles\":" << r.shift_in_cycles
     << ",\"compute_cycles\":" << r.compute_cycles
     << ",\"shift_out_cycles\":" << r.shift_out_cycles
     << ",\"instructions_computed\":" << r.instructions_computed
     << ",\"packets_forwarded\":" << r.packets_forwarded
     << ",\"salvage_received\":" << r.salvage_received << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Full-system grid characterization: phase cycle counts as the grid\n"
      "scales, and end-to-end image accuracy vs per-cell ALU fault rate.",
      bench::kThreads | bench::kProgress | bench::kMetricsOut |
          bench::kTraceOut | bench::kTraceCap);
  if (cli.done()) {
    return cli.status();
  }
  const std::string trace_out = cli.trace_out();
  const std::string metrics_out = cli.metrics_out();
  const std::size_t trace_cap = cli.trace_cap(4096);
  unsigned threads = cli.threads();
  if (!trace_out.empty() && resolve_threads(threads) != 1) {
    // One TraceSink is shared by every accuracy trial; it is not
    // thread-safe, so tracing pins the engine to one thread.
    std::cerr << "note: --trace-out forces --threads 1 (shared trace "
                 "sink)\n";
    threads = 1;
  }
  const TrialEngine engine{ParallelConfig{.threads = threads}};

  std::ofstream metrics_os;
  if (!metrics_out.empty()) {
    metrics_os.open(metrics_out);
    if (!metrics_os) {
      std::cerr << "error: cannot open '" << metrics_out << "'\n";
      return 1;
    }
  }
  std::ofstream trace_os;
  TraceSink trace;
  if (!trace_out.empty()) {
    trace_os.open(trace_out);
    if (!trace_os) {
      std::cerr << "error: cannot open '" << trace_out << "'\n";
      return 1;
    }
    // The live stream sees every record; the ring keeps only the last
    // trace_cap for in-process queries, counting what it evicts.
    trace.set_capacity(trace_cap);
    trace.stream_to(&trace_os);
  }

  // ------------------------------------------------------------------
  // Scaling: one spec per grid edge length, half-filled memory.
  // ------------------------------------------------------------------
  const std::vector<std::size_t> edges = {1, 2, 3, 4, 6, 8};
  std::vector<GridTrialSpec> scaling_specs;
  for (const std::size_t n : edges) {
    GridTrialSpec spec;
    spec.label = std::to_string(n) + "x" + std::to_string(n);
    spec.rows = n;
    spec.cols = n;
    Rng rng(5);
    // Half-fill the grid's memory: n*n cells x 16 pixels.
    const std::size_t pixels = n * n * 16;
    spec.image = Bitmap::random(16, pixels / 16, rng);
    spec.op = reverse_video_op();
    scaling_specs.push_back(std::move(spec));
  }

  // ------------------------------------------------------------------
  // Accuracy: one spec per ALU fault rate, 2x2 TMR cells, paper image.
  // ------------------------------------------------------------------
  const std::vector<double> rates = {0.0, 0.5, 1.0, 2.0, 3.0,
                                     5.0, 9.0, 20.0};
  const Bitmap image = Bitmap::paper_test_image();
  const Bitmap golden = apply_golden(image, hue_shift_op());
  std::vector<GridTrialSpec> accuracy_specs;
  for (const double pct : rates) {
    GridTrialSpec spec;
    spec.label = "2x2-tmr";
    spec.cell.alu_coding = LutCoding::kTmr;
    spec.cell.alu_fault_percent = pct;
    spec.image = image;
    spec.op = hue_shift_op();
    if (!trace_out.empty()) {
      spec.trace = &trace;
    }
    accuracy_specs.push_back(std::move(spec));
  }

  obs::ProgressReporter progress(
      std::cerr, "grid trials",
      scaling_specs.size() + accuracy_specs.size(), 1);
  obs::ProgressReporter* prog = cli.progress() ? &progress : nullptr;

  std::cout << "Grid scaling: phase cycle counts for a full image pass "
               "(shift-in / compute / shift-out), "
            << resolve_threads(threads) << " thread(s)\n\n";
  const std::vector<GridTrialResult> scaling =
      run_grid_trials(engine, scaling_specs, prog);
  TextTable t({"grid", "pixels", "shift-in", "compute", "shift-out",
               "fwd packets", "% correct"});
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const GridRunReport& report = scaling[i].report;
    const std::size_t pixels = edges[i] * edges[i] * 16;
    t.add_row({scaling[i].label, std::to_string(pixels),
               std::to_string(report.shift_in_cycles),
               std::to_string(report.compute_cycles),
               std::to_string(report.shift_out_cycles),
               std::to_string(report.packets_forwarded),
               fmt_double(report.percent_correct, 2)});
    if (metrics_os.is_open()) {
      write_report_jsonl(metrics_os, "scaling", scaling[i].label, 0.0,
                         report);
    }
  }
  t.print(std::cout);

  std::cout << "\nEnd-to-end accuracy and image quality vs per-cell ALU "
               "fault rate (2x2 grid, TMR LUT cell ALUs, 64-pixel paper "
               "image):\n\n";
  const std::vector<GridTrialResult> accuracy =
      run_grid_trials(engine, accuracy_specs, prog);
  progress.finish();
  TextTable a({"alu fault%", "% pixels correct", "missing", "PSNR dB",
               "max |err|"});
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const GridRunReport& report = accuracy[i].report;
    const ImageQuality q = compare_images(golden, accuracy[i].output);
    a.add_row({fmt_double(rates[i], 1), fmt_double(report.percent_correct, 2),
               std::to_string(report.results_missing),
               std::isinf(q.psnr) ? std::string("inf")
                                  : fmt_double(q.psnr, 1),
               std::to_string(q.max_error)});
    if (metrics_os.is_open()) {
      write_report_jsonl(metrics_os, "accuracy", accuracy[i].label, rates[i],
                         report);
    }
  }
  a.print(std::cout);
  std::cout << "\nReading: shift phases scale with grid diameter and "
               "per-lane packet volume; the cell-level TMR ALU curve "
               "mirrors the single-ALU aluns series of Figure 7. PSNR "
               "shows the perceptual story: wrong pixels at low fault "
               "rates are uniformly random corruptions (any bit of the "
               "byte), so max error stays large even when almost every "
               "pixel is exact.\n";
  if (!trace_out.empty()) {
    std::cout << "\nTrace: streamed "
              << trace.size() + trace.dropped() << " events to " << trace_out
              << " (ring kept " << trace.size() << ", evicted "
              << trace.dropped() << " at cap " << trace.capacity() << ")\n";
  }
  if (metrics_os.is_open()) {
    std::cout << "Wrote " << metrics_out << "\n";
  }
  return 0;
}
