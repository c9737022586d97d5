// nbxsim — command-line front-end to the NanoBox fault-injection
// simulator. Runs single-ALU sweeps, defect studies, or full figure
// reproductions without writing any code.
//
// Usage:
//   nbxsim --list
//   nbxsim --alu aluss --percent 3 [--trials 5] [--seed 42]
//   nbxsim --alu aluss --sweep [--policy round|floor|bernoulli|burst]
//          [--burst 4] [--trials 5]
//   nbxsim --alu aluts --defects 0.01 [--percent 0] [--chips 10]
//   nbxsim --figure 7|8|9 [--trials 5]
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "alu/alu_factory.hpp"
#include "common/cli.hpp"
#include "fault/fit.hpp"
#include "fault/sweep.hpp"
#include "serve/wire.hpp"
#include "sim/experiment.hpp"
#include "sim/figure.hpp"
#include "sim/table_render.hpp"

namespace {

using namespace nbx;

int usage(const std::string& program) {
  std::cerr
      << "usage:\n"
      << "  " << program << " --list\n"
      << "  " << program << " --alu NAME --percent P [--trials N] [--seed S]\n"
      << "  " << program << " --alu NAME --sweep [--policy round|floor|"
         "bernoulli|burst] [--burst L]\n"
      << "  " << program << " --alu NAME --defects D [--percent P] "
         "[--chips N]\n"
      << "  " << program << " --figure 7|8|9 [--trials N]\n";
  return 2;
}

/// Diagnostic for a --policy, --burst, --chips or --defects value this
/// front end cannot run, or empty. The policy names and the burst range
/// are nbxd's wire format's (serve/wire.hpp).
std::string nbxsim_flag_message(const CliArgs& args) {
  if (args.has("policy") &&
      !serve::policy_from_name(args.get("policy")).has_value()) {
    return "unknown --policy '" + args.get("policy") +
           "' (want round, floor, bernoulli or burst)";
  }
  if (args.has("burst")) {
    const std::optional<std::int64_t> l = args.get_int("burst");
    if (!l.has_value() || *l < 1 || *l > 64) {
      return "invalid value for --burst: '" + args.get("burst") +
             "' (want an integer in [1, 64])";
    }
  }
  if (args.has("chips")) {
    const std::optional<std::int64_t> n = args.get_int("chips");
    if (!n.has_value() || *n < 1) {
      return "invalid value for --chips: '" + args.get("chips") +
             "' (want an integer >= 1)";
    }
  }
  if (args.has("defects")) {
    const std::optional<double> d = args.get_double("defects");
    if (!d.has_value() || !(*d >= 0.0 && *d <= 1.0)) {
      return "invalid value for --defects: '" + args.get("defects") +
             "' (want a number in [0, 1])";
    }
  }
  return {};
}

int run_list() {
  TextTable t({"ALU", "sites", "description"});
  for (const AluSpec& s : all_specs()) {
    t.add_row({s.name, std::to_string(s.expected_sites), s.description});
  }
  t.print(std::cout);
  return 0;
}

int run_figure_cmd(int figure, int trials, std::uint64_t seed) {
  const FigureSpec spec = figure == 7   ? figure7_spec()
                          : figure == 8 ? figure8_spec()
                                        : figure9_spec();
  const FigureResult fig = run_figure(spec, paper_sweep(), trials, seed);
  print_figure(std::cout, fig);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args(argc, argv);
  const std::string bad_flags = args.unknown_flag_message(
      {"list", "alu", "percent", "trials", "seed", "sweep", "policy",
       "burst", "defects", "chips", "figure"});
  if (!bad_flags.empty()) {
    std::cerr << bad_flags << "\n";
    return usage(args.program());
  }
  std::string bad_value = sweep_flag_message(args);
  if (bad_value.empty()) {
    bad_value = nbxsim_flag_message(args);
  }
  if (!bad_value.empty()) {
    std::cerr << bad_value << "\n";
    return usage(args.program());
  }
  if (args.has("list")) {
    return run_list();
  }
  const auto trials = static_cast<int>(args.get_int("trials", 5));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  if (args.has("figure")) {
    const auto f = args.get_int("figure").value_or(0);
    if (f < 7 || f > 9) {
      std::cerr << "--figure must be 7, 8 or 9\n";
      return usage(args.program());
    }
    return run_figure_cmd(static_cast<int>(f), trials, seed);
  }
  if (!args.has("alu")) {
    return usage(args.program());
  }
  const std::string name = args.get("alu");
  const auto alu = make_alu(name);
  if (alu == nullptr) {
    std::cerr << "unknown ALU '" << name << "' (use --list)\n";
    return 2;
  }
  const auto streams = paper_streams(seed);

  if (args.has("defects")) {
    DefectConfig cfg;
    cfg.defect_density = args.get_double("defects", 0.0);
    cfg.transient_percent = args.get_double("percent", 0.0);
    const auto chips = static_cast<int>(args.get_int("chips", 10));
    const DataPoint p = run_defect_point(*alu, streams, cfg, chips, seed);
    std::cout << name << " @ defect density "
              << fmt_double(cfg.defect_density * 100, 2) << "% + "
              << fmt_double(cfg.transient_percent, 2)
              << "% transients: " << fmt_double(p.mean_percent_correct, 2)
              << "% correct (stddev " << fmt_double(p.stddev, 2) << ", "
              << chips << " chips per workload, " << p.samples
              << " samples)\n";
    return 0;
  }

  const FaultCountPolicy policy =
      *serve::policy_from_name(args.get("policy", "round"));
  const auto burst = static_cast<std::size_t>(args.get_int("burst", 1));
  const TrialEngine engine;
  SweepSpec spec;
  spec.trials_per_workload = trials;
  spec.seed = seed;
  spec.policy = policy;
  spec.burst_length = burst;

  if (args.has("sweep")) {
    TextTable t({"fault%", "FIT", "% correct", "stddev"});
    spec.percents = paper_sweep();
    const std::vector<DataPoint> points = engine.sweep(*alu, streams, spec);
    for (const DataPoint& p : points) {
      t.add_row({fmt_double(p.fault_percent, 2),
                 fmt_sci(fit_from_percent(alu->fault_sites(),
                                          p.fault_percent), 2),
                 fmt_double(p.mean_percent_correct, 2),
                 fmt_double(p.stddev, 2)});
    }
    std::cout << name << " (" << alu->fault_sites() << " sites)\n";
    t.print(std::cout);
    return 0;
  }

  const double pct = args.get_double("percent", 1.0);
  spec.percents = {pct};
  const DataPoint p = engine.point(*alu, streams, spec);
  std::cout << name << " @ " << fmt_double(pct, 2) << "% faults (FIT "
            << fmt_sci(fit_from_percent(alu->fault_sites(), pct), 2)
            << "): " << fmt_double(p.mean_percent_correct, 2)
            << "% correct (stddev " << fmt_double(p.stddev, 2) << ", "
            << p.samples << " samples)\n";
  return 0;
}
