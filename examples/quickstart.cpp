// quickstart — the five-minute tour of the NanoBox library:
//  1. build a Table-2 ALU,
//  2. run an instruction fault-free,
//  3. inject the paper's transient faults and watch the recursive
//     fault masking absorb them,
//  4. run one figure-style data point on the TrialEngine.
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "alu/alu_factory.hpp"
#include "fault/fit.hpp"
#include "fault/mask_generator.hpp"
#include "fault/sweep.hpp"
#include "obs/counters.hpp"
#include "sim/trial_engine.hpp"

int main() {
  using namespace nbx;

  // 1. The paper's best configuration: TMR lookup tables inside three
  //    voting ALU copies ("aluss", 5040 fault-injection sites).
  const auto alu = make_alu("aluss");
  std::cout << "Built " << alu->name() << " with " << alu->fault_sites()
            << " fault-injection sites\n";

  // 2. Fault-free computation: 0x5A XOR 0xFF (the paper's reverse-video
  //    pixel operation).
  const AluOutput clean = alu->compute(Opcode::kXor, 0x5A, 0xFF, MaskView{});
  std::cout << "0x5A XOR 0xFF = 0x" << std::hex << int(clean.value)
            << std::dec << " (expected 0xA5)\n";

  // 3. Now at a raw FIT rate twenty orders of magnitude above CMOS:
  //    3% of all stored bits flip, freshly, on every computation.
  const double pct = 3.0;
  std::cout << "\nInjecting " << pct << "% transient faults ("
            << MaskGenerator(alu->fault_sites(), pct).faults_per_computation()
            << " flipped bits per computation, raw FIT "
            << fit_from_percent(alu->fault_sites(), pct) << ")\n";
  Rng rng(42);
  const MaskGenerator gen(alu->fault_sites(), pct);
  int correct = 0;
  const int runs = 1000;
  // The fault-anatomy sink: every layer reports what it did with the
  // faults it saw (docs/OBSERVABILITY.md).
  obs::Counters anatomy;
  for (int i = 0; i < runs; ++i) {
    const BitVec mask = gen.generate(rng);
    const AluOutput out = alu->compute(Opcode::kXor, 0x5A, 0xFF,
                                       MaskView(mask, 0, mask.size()),
                                       &anatomy);
    if (out.value == 0xA5) {
      ++correct;
    }
  }
  std::cout << correct << "/" << runs
            << " computations correct despite the fault storm\n";
  const obs::CodeLayerCounters& tmr = anatomy.at(obs::CodeLayer::kTmr);
  std::cout << "(bit-level TMR reads repaired by the vote: " << tmr.corrected
            << " of " << tmr.reads << ", lost: " << tmr.miscorrected
            << "; module votes: " << anatomy.module_level.votes
            << ", replica copies outvoted: "
            << anatomy.module_level.copies_outvoted << ")\n";

  // 4. One paper-protocol data point: both image workloads, five trials
  //    each, mean of ten samples, evaluated on the unified TrialEngine.
  const auto streams = paper_streams();
  const TrialEngine engine;
  SweepSpec spec;
  spec.percents = {pct};
  spec.seed = 7;
  const DataPoint point = engine.point(*alu, streams, spec);
  std::cout << "\nFigure-9-style data point @ " << pct << "%: "
            << point.mean_percent_correct << "% correct (stddev "
            << point.stddev << ", " << point.samples << " samples)\n";
  std::cout << "Paper claim at this rate: 98% or better.\n";
  return 0;
}
