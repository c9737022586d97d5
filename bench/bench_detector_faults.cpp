// bench_detector_faults — removes the paper's §4 idealization: "we do
// not model faults in the lookup table error detector or corrector."
//
// The behavioural TMR ALU (aluns) faults only the 1536 stored bits; the
// gate-level variant (alunhw) additionally exposes every LUT's address
// decoder, per-copy mux and majority corrector — 76 gate nodes per LUT,
// 3968 sites total. Both are swept at the same fault *fraction* (the
// paper's methodology normalizes by site count), so the comparison asks:
// if the corrector hardware is as unreliable as the fabric it protects,
// how much of the bit-level TMR story survives?
#include <iostream>

#include "alu/alu_factory.hpp"
#include "alu/hw_core_alu.hpp"
#include "alu/slice_plan.hpp"
#include "bench/bench_cli.hpp"
#include "common/rng.hpp"
#include "lut/coded_lut.hpp"
#include "lut/hw_lut.hpp"
#include "fault/sweep.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Detector/corrector fault study: behavioural TMR LUTs vs the\n"
      "gate-level variant whose read path is itself faultable.",
      bench::kThreads);
  if (cli.done()) {
    return cli.status();
  }
  const auto streams = paper_streams(2026);
  const std::vector<double> percents = {0.05, 0.1, 0.5, 1.0, 2.0,
                                        3.0,  5.0, 9.0};
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};
  const auto point = [&](const IAlu& alu, double pct) {
    SweepSpec spec;
    spec.percents = {pct};
    spec.seed = 61;
    return engine.point(alu, streams, spec);
  };

  const auto behavioural = make_alu("aluns");
  const auto hardware = make_alu("alunhw");
  const std::size_t hw_storage =
      HwLutCoreAlu().storage_sites();  // 1536, the behavioural site space

  std::cout << "Detector/corrector fault study\n"
            << "  aluns   — behavioural TMR LUTs, " << behavioural->fault_sites()
            << " storage sites (the paper's model)\n"
            << "  alunhw  — gate-level TMR LUTs, " << hardware->fault_sites()
            << " sites (48 storage + 76 read-path nodes per LUT)\n\n";

  std::cout << "(alunhw injects the same fault *fraction* over "
            << hardware->fault_sites() << " sites, of which " << hw_storage
            << " are storage — so it also carries ~2.6x more absolute "
               "faults per computation, exactly as Table 2's larger "
               "implementations do in the paper's methodology)\n\n";

  TextTable t({"fault%", "aluns (paper model)", "alunhw (hw read path)",
               "delta"});
  for (const double pct : percents) {
    const DataPoint ideal = point(*behavioural, pct);
    const DataPoint full = point(*hardware, pct);
    t.add_row({fmt_double(pct, 2),
               fmt_double(ideal.mean_percent_correct, 2),
               fmt_double(full.mean_percent_correct, 2),
               fmt_double(full.mean_percent_correct -
                              ideal.mean_percent_correct,
                          2)});
  }
  t.print(std::cout);

  // LUT-level comparison including the recursive fix: probability one
  // LUT read returns the golden bit when the given fraction of its sites
  // is flipped per access (Monte Carlo, 20k reads per point).
  std::cout << "\nSingle-LUT read correctness (Monte Carlo, 20k reads):\n"
            << "  behavioural — CodedLut TMR, 48 storage sites (paper)\n"
            << "  hardware    — HwTmrLut, +76 faultable read-path nodes\n"
            << "  recursive   — 3 complete hardware LUTs + final "
               "majority, 377 sites\n\n";
  {
    const BitVec tt = nanobox_select_table();
    const CodedLut behavioural_lut{BitVec(tt), LutCoding::kTmr};
    const HwTmrLut hw_lut{BitVec(tt)};
    const HwRecursiveTmrLut rec_lut{BitVec(tt)};
    Rng rng(321);
    TextTable lt({"fault%", "behavioural", "hardware", "recursive"});
    for (const double pct : {0.5, 1.0, 2.0, 5.0, 10.0}) {
      double acc[3] = {0, 0, 0};
      const int reads = 20000;
      const MaskGenerator g0(behavioural_lut.fault_sites(), pct);
      const MaskGenerator g1(hw_lut.fault_sites(), pct);
      const MaskGenerator g2(rec_lut.fault_sites(), pct);
      for (int i = 0; i < reads; ++i) {
        const auto addr = static_cast<std::uint32_t>(rng.below(16));
        const bool golden = tt.get(addr);
        const BitVec m0 = g0.generate(rng);
        const BitVec m1 = g1.generate(rng);
        const BitVec m2 = g2.generate(rng);
        acc[0] += behavioural_lut.read(addr, MaskView(m0, 0, m0.size())) ==
                  golden;
        acc[1] += hw_lut.read(addr, MaskView(m1, 0, m1.size())) == golden;
        acc[2] += rec_lut.read(addr, MaskView(m2, 0, m2.size())) == golden;
      }
      lt.add_row({fmt_double(pct, 1), fmt_double(100.0 * acc[0] / reads, 2),
                  fmt_double(100.0 * acc[1] / reads, 2),
                  fmt_double(100.0 * acc[2] / reads, 2)});
    }
    lt.print(std::cout);
  }

  std::cout << "\nReading: once the read path is faultable, single gate "
               "faults in the shared decoder or the majority corrector "
               "bypass the TMR protection entirely, so alunhw degrades "
               "far faster than aluns at the same fault fraction — the "
               "paper's bit-level numbers implicitly assume the corrector "
               "is built from more reliable devices than the storage it "
               "guards. Recursively triplicating the whole read path "
               "(third column) recovers reliability only at the lowest "
               "rates: it also triples the fault-collecting area, so past "
               "~1% per-site fault probability the extra redundancy "
               "absorbs more faults than it masks. That is the same "
               "redundancy-saturation crossover the paper observed at the "
               "module level (Figures 7-9), now reproduced one level "
               "further down the hierarchy.\n";
  return 0;
}
