// bench_cli.hpp — the shared bench command line.
//
// Every bench front-end takes the same engine knobs (--threads, --trials,
// --seed, --alus, --smoke, --progress, --skip-serial) and the
// same output sinks (--out, --metrics-out, --trace-out, --trace-cap);
// before this header each bench re-parsed its own subset by hand, with
// drifting help text and no unknown-flag diagnostics. A BenchCli is
// constructed with the subset of shared flags the bench accepts (an OR
// of BenchFlag bits) plus any bench-specific flags; it prints a
// consistent --help, rejects flags the bench does not take, and exposes
// typed accessors with per-bench fallbacks.
//
// Usage:
//   int main(int argc, char** argv) {
//     nbx::bench::BenchCli cli(argc, argv, "what this bench measures",
//                              nbx::bench::kThreads | nbx::bench::kOut,
//                              {{"--cells N", "grid edge length"}});
//     if (cli.done()) return cli.status();
//     ...
//   }
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/cli.hpp"

namespace nbx::bench {

/// The shared flag vocabulary. A bench ORs together the flags it takes.
enum BenchFlag : std::uint32_t {
  kThreads = 1u << 0,     ///< --threads N   (0 = all hardware threads)
  kTrials = 1u << 2,      ///< --trials N
  kSeed = 1u << 3,        ///< --seed N
  kAlus = 1u << 4,        ///< --alus a,b,c
  kSmoke = 1u << 5,       ///< --smoke
  kProgress = 1u << 6,    ///< --progress
  kSkipSerial = 1u << 7,  ///< --skip-serial
  kOut = 1u << 8,         ///< --out PATH
  kMetricsOut = 1u << 9,  ///< --metrics-out PATH
  kTraceOut = 1u << 10,   ///< --trace-out PATH
  kTraceCap = 1u << 11,   ///< --trace-cap N
  kRegistry = 1u << 12,   ///< --registry-out / --registry-jsonl /
                          ///< --registry-interval
  kProfileOut = 1u << 13,  ///< --profile-out PATH
};

/// A bench-specific flag for the help text, e.g. {"--cells N", "grid
/// edge length"}. The flag name (text before the first space, without
/// the leading dashes) is also added to the accepted set.
struct ExtraFlag {
  std::string usage;  ///< "--name VALUE" as shown in --help
  std::string help;   ///< one-line description
};

/// Splits a comma-separated list, dropping empty items ("a,,b" -> a, b).
std::vector<std::string> split_csv(const std::string& csv);

/// Parsed + validated bench command line. Construction handles --help
/// and unknown flags; when done() is true main() should exit with
/// status() without running the bench.
class BenchCli {
 public:
  BenchCli(int argc, const char* const* argv, std::string description,
           std::uint32_t accepted, std::vector<ExtraFlag> extra = {});

  /// True when the command line asked for help or failed validation.
  [[nodiscard]] bool done() const { return done_; }
  /// Exit code for the done() case: 0 for --help, 2 for a bad flag.
  [[nodiscard]] int status() const { return status_; }
  /// The validation diagnostic behind an exit-2 done() (also printed to
  /// stderr): always names the offending flag — "unknown flag '--x'" or
  /// "invalid value for --threads: 'abc'". Empty when validation
  /// passed. Exists so the message itself is regression-testable
  /// (tests/bench/bench_cli_test.cpp).
  [[nodiscard]] const std::string& error() const { return error_; }

  /// Writes the usage/flag summary (what --help prints).
  void print_help(std::ostream& os) const;

  // Shared accessors. Fallbacks are per-bench (e.g. smoke-dependent
  // trial counts), so they are parameters, not baked-in defaults.
  [[nodiscard]] unsigned threads() const;
  [[nodiscard]] int trials(int fallback) const;
  [[nodiscard]] std::uint64_t seed(std::uint64_t fallback) const;
  /// --alus as a list; empty when the flag is absent.
  [[nodiscard]] std::vector<std::string> alus() const;
  [[nodiscard]] bool smoke() const;
  [[nodiscard]] bool progress() const;
  [[nodiscard]] bool skip_serial() const;
  [[nodiscard]] std::string out() const;
  [[nodiscard]] std::string metrics_out() const;
  [[nodiscard]] std::string trace_out() const;
  [[nodiscard]] std::size_t trace_cap(std::size_t fallback) const;
  [[nodiscard]] std::string registry_out() const;
  [[nodiscard]] std::string registry_jsonl() const;
  [[nodiscard]] double registry_interval(double fallback = 1.0) const;
  [[nodiscard]] std::string profile_out() const;

  /// The underlying parser, for bench-specific flags.
  [[nodiscard]] const CliArgs& args() const { return args_; }

 private:
  CliArgs args_;
  std::string description_;
  std::uint32_t accepted_;
  std::vector<ExtraFlag> extra_;
  bool done_ = false;
  int status_ = 0;
  std::string error_;
};

}  // namespace nbx::bench
