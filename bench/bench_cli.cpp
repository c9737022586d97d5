#include "bench/bench_cli.hpp"

#include <iostream>
#include <sstream>

namespace nbx::bench {

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> items;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

namespace {

/// One shared flag's name, usage string and help line, in --help order.
struct SharedFlag {
  BenchFlag bit;
  const char* name;
  const char* usage;
  const char* help;
};

constexpr SharedFlag kSharedFlags[] = {
    {kThreads, "threads", "--threads N",
     "worker threads (0 = all hardware threads)"},
    {kTrials, "trials", "--trials N", "trials per workload per point"},
    {kSeed, "seed", "--seed N", "master RNG seed"},
    {kAlus, "alus", "--alus a,b,c", "comma-separated Table-2 ALU names"},
    {kSmoke, "smoke", "--smoke", "reduced run for CI smoke targets"},
    {kProgress, "progress", "--progress",
     "report points done / trials-per-second / ETA on stderr"},
    {kSkipSerial, "skip-serial", "--skip-serial",
     "skip the serial baseline pass (no bit-identity verification)"},
    {kOut, "out", "--out PATH", "bench JSON output path"},
    {kMetricsOut, "metrics-out", "--metrics-out PATH",
     "stream per-point fault-anatomy JSONL to PATH"},
    {kTraceOut, "trace-out", "--trace-out PATH",
     "write a chrome://tracing timeline to PATH"},
    {kTraceCap, "trace-cap", "--trace-cap N",
     "cap the trace ring buffer at N events"},
    {kRegistry, "registry-out", "--registry-out PATH",
     "write Prometheus text exposition of runtime metrics at exit"},
    {kRegistry, "registry-jsonl", "--registry-jsonl PATH",
     "stream periodic metric snapshots as JSONL to PATH"},
    {kRegistry, "registry-interval", "--registry-interval SECS",
     "snapshot interval for --registry-jsonl (default 1.0)"},
    {kProfileOut, "profile-out", "--profile-out PATH",
     "write per-stage profile JSON (count/total/quantiles) to PATH"},
};

/// "--cells N" -> "cells" (what CliArgs keys on).
std::string flag_name_of(const std::string& usage) {
  std::string name = usage.substr(0, usage.find(' '));
  while (!name.empty() && name.front() == '-') {
    name.erase(name.begin());
  }
  const std::size_t eq = name.find('=');
  if (eq != std::string::npos) {
    name.resize(eq);
  }
  return name;
}

}  // namespace

BenchCli::BenchCli(int argc, const char* const* argv,
                   std::string description, std::uint32_t accepted,
                   std::vector<ExtraFlag> extra)
    : args_(argc, argv), description_(std::move(description)),
      accepted_(accepted), extra_(std::move(extra)) {
  if (args_.has("help")) {
    print_help(std::cout);
    done_ = true;
    status_ = 0;
    return;
  }
  std::vector<std::string> known{"help"};
  for (const SharedFlag& f : kSharedFlags) {
    if ((accepted_ & f.bit) != 0) {
      known.emplace_back(f.name);
    }
  }
  for (const ExtraFlag& f : extra_) {
    known.push_back(flag_name_of(f.usage));
  }
  error_ = args_.unknown_flag_message(known);
  if (error_.empty()) {
    // Shared numeric flags must parse when present: `--threads abc`
    // used to silently behave like an absent flag (the typed accessors
    // fall back), which is worse than rejecting — the run would proceed
    // with a default the user explicitly tried to override.
    struct NumericFlag {
      BenchFlag bit;
      const char* name;
      bool as_double;
    };
    static constexpr NumericFlag kNumeric[] = {
        {kThreads, "threads", false},   {kTrials, "trials", false},
        {kSeed, "seed", false},
        {kTraceCap, "trace-cap", false},
        {kRegistry, "registry-interval", true},
    };
    for (const NumericFlag& f : kNumeric) {
      if ((accepted_ & f.bit) == 0) {
        continue;
      }
      error_ = args_.invalid_number_message(f.name, f.as_double);
      if (!error_.empty()) {
        break;
      }
    }
  }
  if (!error_.empty()) {
    std::cerr << args_.program() << ": " << error_ << "\n"
              << "Run with --help for the flag list.\n";
    done_ = true;
    status_ = 2;
  }
}

void BenchCli::print_help(std::ostream& os) const {
  os << "Usage: " << args_.program() << " [flags]\n\n"
     << description_ << "\n\nFlags:\n";
  const auto row = [&os](const std::string& usage, const std::string& help) {
    os << "  " << usage;
    for (std::size_t pad = usage.size(); pad < 22; ++pad) {
      os << ' ';
    }
    os << ' ' << help << "\n";
  };
  for (const SharedFlag& f : kSharedFlags) {
    if ((accepted_ & f.bit) != 0) {
      row(f.usage, f.help);
    }
  }
  for (const ExtraFlag& f : extra_) {
    row(f.usage, f.help);
  }
  row("--help", "print this message and exit");
}

unsigned BenchCli::threads() const {
  return static_cast<unsigned>(args_.get_int("threads", 0));
}

int BenchCli::trials(int fallback) const {
  return static_cast<int>(args_.get_int("trials", fallback));
}

std::uint64_t BenchCli::seed(std::uint64_t fallback) const {
  return static_cast<std::uint64_t>(
      args_.get_int("seed", static_cast<std::int64_t>(fallback)));
}

std::vector<std::string> BenchCli::alus() const {
  return split_csv(args_.get("alus"));
}

bool BenchCli::smoke() const { return args_.has("smoke"); }

bool BenchCli::progress() const { return args_.has("progress"); }

bool BenchCli::skip_serial() const { return args_.has("skip-serial"); }

std::string BenchCli::out() const { return args_.get("out"); }

std::string BenchCli::metrics_out() const {
  return args_.get("metrics-out");
}

std::string BenchCli::trace_out() const { return args_.get("trace-out"); }

std::size_t BenchCli::trace_cap(std::size_t fallback) const {
  return static_cast<std::size_t>(
      args_.get_int("trace-cap", static_cast<std::int64_t>(fallback)));
}

std::string BenchCli::registry_out() const {
  return args_.get("registry-out");
}

std::string BenchCli::registry_jsonl() const {
  return args_.get("registry-jsonl");
}

double BenchCli::registry_interval(double fallback) const {
  return args_.get_double("registry-interval", fallback);
}

std::string BenchCli::profile_out() const {
  return args_.get("profile-out");
}

}  // namespace nbx::bench
