// bench_cli_test.cpp — the shared bench command line (bench/bench_cli).
// Every bench front-end leans on this one parser for --help, unknown-
// flag rejection and the typed accessors, so its contract is pinned
// here: help exits 0, a flag outside the bench's accepted set exits 2,
// and fallbacks surface exactly when a flag is absent.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_cli.hpp"

namespace nbx::bench {
namespace {

BenchCli make_cli(std::vector<const char*> argv, std::uint32_t accepted,
                  std::vector<ExtraFlag> extra = {}) {
  argv.insert(argv.begin(), "bench_test");
  return BenchCli(static_cast<int>(argv.size()), argv.data(),
                  "test bench description", accepted, std::move(extra));
}

TEST(BenchCli, HelpIsDoneWithStatusZero) {
  const BenchCli cli = make_cli({"--help"}, kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 0);
}

TEST(BenchCli, HelpListsOnlyAcceptedSharedFlagsPlusExtras) {
  const BenchCli cli = make_cli({}, kThreads | kOut,
                                {{"--cells N", "grid edge length"}});
  std::ostringstream os;
  cli.print_help(os);
  const std::string help = os.str();
  EXPECT_NE(help.find("test bench description"), std::string::npos);
  EXPECT_NE(help.find("--threads N"), std::string::npos);
  EXPECT_NE(help.find("--out PATH"), std::string::npos);
  EXPECT_NE(help.find("--cells N"), std::string::npos);
  EXPECT_NE(help.find("grid edge length"), std::string::npos);
  EXPECT_NE(help.find("--help"), std::string::npos);
  // Flags the bench did not opt into stay out of its help.
  EXPECT_EQ(help.find("--trials"), std::string::npos);
  EXPECT_EQ(help.find("--smoke"), std::string::npos);
}

TEST(BenchCli, UnknownFlagIsDoneWithStatusTwo) {
  const BenchCli cli = make_cli({"--bogus", "3"}, kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 2);
}

TEST(BenchCli, UnknownFlagDiagnosticNamesTheOffendingFlag) {
  // Exit-2 diagnostics must say WHICH flag was rejected — "unknown
  // flag" alone sends the user diffing their command line against
  // --help by eye.
  const BenchCli cli = make_cli({"--bogus", "3", "--threads", "2"},
                                kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 2);
  EXPECT_NE(cli.error().find("--bogus"), std::string::npos)
      << "diagnostic was: " << cli.error();
  // The accepted flag is not blamed.
  EXPECT_EQ(cli.error().find("--threads"), std::string::npos);
}

TEST(BenchCli, EveryUnknownFlagIsNamedWhenSeveralAreGiven) {
  const BenchCli cli =
      make_cli({"--bogus", "3", "--also-bad", "x"}, kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 2);
  EXPECT_NE(cli.error().find("--bogus"), std::string::npos);
  EXPECT_NE(cli.error().find("--also-bad"), std::string::npos);
}

TEST(BenchCli, UnparsableNumericValueIsRejectedNotDefaulted) {
  // Historically `--threads abc` fell back silently to the default —
  // the worst failure mode for a perf gate, where a typo'd thread count
  // changes what the bench measures without any visible sign.
  const BenchCli cli = make_cli({"--threads", "abc"}, kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 2);
  EXPECT_NE(cli.error().find("--threads"), std::string::npos)
      << "diagnostic was: " << cli.error();
  EXPECT_NE(cli.error().find("abc"), std::string::npos)
      << "diagnostic was: " << cli.error();
}

TEST(BenchCli, NumericValidationOnlyCoversAcceptedFlags) {
  // --trials is not in this bench's accepted set, so its (bad) value is
  // reported as an unknown flag, not an invalid number.
  const BenchCli bad_trials = make_cli({"--trials", "abc"}, kThreads);
  EXPECT_TRUE(bad_trials.done());
  EXPECT_EQ(bad_trials.status(), 2);
  EXPECT_NE(bad_trials.error().find("unknown flag '--trials'"),
            std::string::npos)
      << "diagnostic was: " << bad_trials.error();
  // And a well-formed value sails through with no error recorded.
  const BenchCli good = make_cli({"--threads", "4"}, kThreads);
  EXPECT_FALSE(good.done());
  EXPECT_TRUE(good.error().empty());
}

TEST(BenchCli, SharedFlagOutsideTheAcceptedSetIsRejected) {
  // --trials is a real shared flag, but this bench only takes --threads.
  const BenchCli cli = make_cli({"--trials", "64"}, kThreads);
  EXPECT_TRUE(cli.done());
  EXPECT_EQ(cli.status(), 2);
}

TEST(BenchCli, AcceptedFlagsParseAndFallbacksFill) {
  const BenchCli cli =
      make_cli({"--threads", "8", "--seed", "7", "--alus", "aluss,aluns",
                "--smoke", "--out", "x.json"},
               kThreads | kTrials | kSeed | kAlus | kSmoke | kOut);
  ASSERT_FALSE(cli.done());
  EXPECT_EQ(cli.threads(), 8u);
  EXPECT_EQ(cli.trials(320), 320);  // absent -> fallback
  EXPECT_EQ(cli.seed(2026), 7u);
  EXPECT_EQ(cli.alus(), (std::vector<std::string>{"aluss", "aluns"}));
  EXPECT_TRUE(cli.smoke());
  EXPECT_FALSE(cli.progress());
  EXPECT_EQ(cli.out(), "x.json");
  EXPECT_TRUE(cli.metrics_out().empty());
}

TEST(BenchCli, DefaultsWhenNoFlagsGiven) {
  const BenchCli cli = make_cli({}, kThreads | kTraceCap);
  ASSERT_FALSE(cli.done());
  EXPECT_EQ(cli.threads(), 0u);  // 0 = all hardware threads
  EXPECT_EQ(cli.trace_cap(100000), 100000u);
  EXPECT_FALSE(cli.smoke());
  EXPECT_TRUE(cli.out().empty());
}

TEST(BenchCli, ExtraFlagsReachTheBenchThroughArgs) {
  const BenchCli cli = make_cli({"--percent", "3.5"}, kThreads,
                                {{"--percent P", "fault percentage"}});
  ASSERT_FALSE(cli.done());
  EXPECT_DOUBLE_EQ(cli.args().get_double("percent", 2.0), 3.5);
}

TEST(BenchCli, SplitCsvDropsEmptyItems) {
  EXPECT_EQ(split_csv("a,,b,"), (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(split_csv("").empty());
}

}  // namespace
}  // namespace nbx::bench
