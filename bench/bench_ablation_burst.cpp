// bench_ablation_burst — spatial-correlation ablation. The paper models
// "uniformly distributed random transient device faults" (§4); physical
// upsets in dense nanofabrics are more plausibly *bursts* — one strike
// disturbing a run of neighbouring cells. This bench reruns the Figure-7
// bit-level comparison with the same total fault count delivered in
// bursts of 2, 4 and 8 adjacent sites.
//
// Reed-Solomon (alunrs, extension) is often assumed burst-native: damage
// confined to one 4-bit symbol is a single correctable symbol error. The
// measured data shows the catch — a burst at a *random, unaligned* start
// straddles two symbols (and two-symbol errors exceed RS(6,4)'s radius),
// while the uniform faults it replaces were mostly isolated single bits
// RS corrects perfectly. Unaligned clustering therefore HURTS RS; only
// symbol-aligned strikes realize its burst advantage.
//
// What clustering changes: the same number of flips lands in *fewer*
// LUTs. For the per-LUT Hamming decoder that is a win — most LUTs see no
// fault at all, and a LUT that is already wrong cannot get more wrong —
// while for the uncoded LUT an 8-long burst covers half of a 16-entry
// table, making an addressed-bit hit likely. TMR is nearly neutral: a
// burst stays within one copy, which the other two copies outvote, but
// uniform faults rarely doubled up on one addressed bit anyway.
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "fault/sweep.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

namespace {

nbx::DataPoint burst_point(const nbx::TrialEngine& engine,
                           const nbx::IAlu& alu,
                           const std::vector<std::vector<nbx::Instruction>>&
                               streams,
                           double pct, std::size_t len) {
  using namespace nbx;
  SweepSpec spec;
  spec.percents = {pct};
  spec.seed = 47;
  spec.policy = len == 1 ? FaultCountPolicy::kRoundNearest
                         : FaultCountPolicy::kBurst;
  spec.burst_length = len;
  return engine.point(alu, streams, spec);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Spatial-correlation ablation: the Figure-7 bit-level comparison\n"
      "with the same total fault count delivered in bursts of 2, 4, 8.",
      bench::kThreads);
  if (cli.done()) {
    return cli.status();
  }
  const auto streams = paper_streams(2026);
  const std::vector<double> percents = {1.0, 2.0, 3.0, 5.0, 9.0};
  const std::vector<std::size_t> burst_lengths = {1, 2, 4, 8};
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};

  for (const char* name : {"alunn", "alunh", "alunrs", "aluns"}) {
    const auto alu = make_alu(name);
    std::cout << name << " — % correct vs fault % per burst length "
              << "(same total flips per computation)\n\n";
    std::vector<std::string> header{"fault%"};
    for (const std::size_t len : burst_lengths) {
      header.push_back("L=" + std::to_string(len));
    }
    TextTable t(std::move(header));
    for (const double pct : percents) {
      std::vector<std::string> row{fmt_double(pct, 1)};
      for (const std::size_t len : burst_lengths) {
        const DataPoint p = burst_point(engine, *alu, streams, pct, len);
        row.push_back(fmt_double(p.mean_percent_correct, 2));
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\n";
  }
  std::cout << "TMR copy-layout ablation — aluns (blocked copies) vs "
               "alunsi (entry-interleaved copies). Identical storage, "
               "identical behaviour under uniform faults; under bursts the "
               "interleaved layout lets one strike wipe all three copies "
               "of an entry:\n\n";
  {
    TextTable t({"fault%", "aluns L=1", "alunsi L=1", "aluns L=4",
                 "alunsi L=4", "aluns L=8", "alunsi L=8"});
    const auto blocked = make_alu("aluns");
    const auto interleaved = make_alu("alunsi");
    for (const double pct : percents) {
      std::vector<std::string> row{fmt_double(pct, 1)};
      for (const std::size_t len : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
        for (const IAlu* alu : {blocked.get(), interleaved.get()}) {
          const DataPoint p = burst_point(engine, *alu, streams, pct, len);
          row.push_back(fmt_double(p.mean_percent_correct, 2));
        }
      }
      t.add_row(std::move(row));
    }
    t.print(std::cout);
    std::cout << "\n";
  }

  std::cout << "Reading: spatial clustering concentrates damage into fewer "
               "LUTs — a significant relief for the Hamming ALU (whose "
               "false positives scale with the number of *touched* LUTs), "
               "a penalty for the uncoded ALU (a long burst covers much of "
               "one 16-entry table), a penalty for Reed-Solomon (unaligned "
               "bursts straddle symbols, exceeding its one-symbol radius, "
               "while the uniform faults it replaces were correctable "
               "singles), and near-neutral for blocked TMR. The paper's "
               "uniform model is therefore approximately conservative for "
               "its TMR headline numbers but favourable to RS-style symbol "
               "codes; and the copy layout below shows burst robustness is "
               "a *placement* property as much as a coding one.\n";
  return 0;
}
