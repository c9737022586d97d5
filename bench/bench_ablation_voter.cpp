// bench_ablation_voter — ablation the paper motivates but does not run:
// how much of the module-redundancy ineffectiveness (§5, Figures 7-9
// "nearly identical") is due to the voter itself being faulted? We rerun
// the space-redundant ALUs with the voter (and storage) segments held
// fault-free (InjectionScope::kDatapathOnly) and compare.
#include <iostream>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "fault/sweep.hpp"
#include "sim/trial_engine.hpp"
#include "sim/table_render.hpp"

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "Space-redundant ALUs with faults in all sites vs datapath-only\n"
      "(voter kept ideal): how much accuracy does the faulted voter cost?",
      bench::kThreads);
  if (cli.done()) {
    return cli.status();
  }
  const auto streams = paper_streams(2026);
  const std::vector<double> percents = {1.0, 2.0, 3.0, 5.0, 9.0, 20.0};
  const TrialEngine engine{ParallelConfig{.threads = cli.threads()}};
  std::cout << "Voter-fault ablation: space-redundant ALUs with faults in "
               "all sites vs datapath-only (voter kept ideal)\n\n";

  TextTable t({"ALU", "fault%", "all sites", "datapath only", "delta"});
  for (const char* name : {"aluscmos", "alush", "alusn", "aluss"}) {
    const auto alu = make_alu(name);
    const auto spec = find_spec(name);
    // Datapath = the three core copies; the tail is voter (+ none here).
    const auto core = make_alu(std::string("alun") +
                               std::string(name).substr(4));
    const std::size_t datapath = 3 * core->fault_sites();
    for (const double pct : percents) {
      SweepSpec all_spec;
      all_spec.percents = {pct};
      all_spec.seed = 31;
      SweepSpec dp_spec = all_spec;
      dp_spec.scope = InjectionScope::kDatapathOnly;
      dp_spec.datapath_sites = datapath;
      const DataPoint all = engine.point(*alu, streams, all_spec);
      const DataPoint dp = engine.point(*alu, streams, dp_spec);
      t.add_row({spec->name, fmt_double(pct, 1),
                 fmt_double(all.mean_percent_correct, 2),
                 fmt_double(dp.mean_percent_correct, 2),
                 fmt_double(dp.mean_percent_correct -
                                all.mean_percent_correct,
                            2)});
    }
  }
  t.print(std::cout);
  std::cout << "\nReading: positive deltas quantify how much accuracy the "
               "faulted voter costs. The paper's observation that module "
               "redundancy saturates is consistent with small deltas at "
               "low rates and growing deltas as the voter drowns.\n";
  return 0;
}
