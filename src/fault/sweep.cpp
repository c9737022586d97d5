#include "fault/sweep.hpp"

#include <cmath>

#include "common/cli.hpp"

namespace nbx {

std::vector<double> paper_sweep() {
  return {kPaperFaultPercentages.begin(), kPaperFaultPercentages.end()};
}

std::vector<double> smoke_sweep() { return {0.0, 1.0, 5.0, 20.0, 75.0}; }

bool valid_fault_percent(double percent) {
  return std::isfinite(percent) && percent >= 0.0 && percent <= 100.0;
}

bool valid_trials_per_workload(std::int64_t trials) {
  return trials >= 1 && trials <= kMaxTrialsPerWorkload;
}

std::string sweep_flag_message(const CliArgs& args) {
  if (args.has("percent")) {
    const std::optional<double> p = args.get_double("percent");
    if (!p.has_value() || !valid_fault_percent(*p)) {
      return "invalid value for --percent: '" + args.get("percent") +
             "' (want a finite number in [0, 100])";
    }
  }
  if (args.has("trials")) {
    const std::optional<std::int64_t> t = args.get_int("trials");
    if (!t.has_value() || !valid_trials_per_workload(*t)) {
      return "invalid value for --trials: '" + args.get("trials") +
             "' (want an integer in [1, " +
             std::to_string(kMaxTrialsPerWorkload) + "])";
    }
  }
  return {};
}

}  // namespace nbx
