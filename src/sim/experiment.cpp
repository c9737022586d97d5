// Manufacturing-defect experiments (sim/experiment.hpp).
#include "sim/experiment.hpp"

#include "fault/defect_map.hpp"

namespace nbx {

TrialResult run_defect_trial(const IAlu& alu,
                             const std::vector<Instruction>& stream,
                             const DefectConfig& cfg, Rng& rng) {
  const DefectMap chip = DefectMap::manufacture(alu.defectable_sites(),
                                                cfg.defect_density, rng);
  const MaskGenerator gen(alu.fault_sites(), cfg.transient_percent,
                          cfg.policy);
  BitVec mask(alu.fault_sites());
  TrialResult res;
  res.instructions = stream.size();
  for (const Instruction& ins : stream) {
    gen.generate(rng, mask);
    alu.impose_defects(chip, mask);
    const AluOutput out = alu.compute(ins.op, ins.a, ins.b,
                                      MaskView(mask, 0, mask.size()));
    if (out.value != ins.golden) {
      ++res.incorrect;
    }
  }
  res.percent_correct =
      stream.empty()
          ? 100.0
          : 100.0 * static_cast<double>(stream.size() - res.incorrect) /
                static_cast<double>(stream.size());
  return res;
}

DataPoint run_defect_point(
    const IAlu& alu, const std::vector<std::vector<Instruction>>& streams,
    const DefectConfig& cfg, int chips_per_workload, std::uint64_t seed) {
  Rng master(seed);
  RunningStats stats;
  for (std::size_t w = 0; w < streams.size(); ++w) {
    for (int chip = 0; chip < chips_per_workload; ++chip) {
      Rng rng = master.split(
          (w << 24) ^ static_cast<std::uint64_t>(chip) ^
          (static_cast<std::uint64_t>(cfg.defect_density * 1e6) << 28) ^
          (static_cast<std::uint64_t>(cfg.transient_percent * 100.0) << 44));
      stats.add(run_defect_trial(alu, streams[w], cfg, rng).percent_correct);
    }
  }
  DataPoint p;
  p.alu = std::string(alu.name());
  p.fault_percent = cfg.transient_percent;
  p.mean_percent_correct = stats.mean();
  p.stddev = stats.stddev();
  p.ci95 = ci95_half_width(stats.stddev(), stats.count());
  p.samples = stats.count();
  return p;
}

}  // namespace nbx
