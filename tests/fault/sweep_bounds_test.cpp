// sweep_bounds_test.cpp — the sweep-input bounds every front end shares
// (fault/sweep.hpp). nbxd's wire parser, nbxsim and bench_simd accept
// exactly these fault percentages and trial counts; anything else is an
// exit-2 diagnostic that names the flag, never a run — past the front
// end, only MaskGenerator's assert guards the range, and NDEBUG drops
// it.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "fault/sweep.hpp"

namespace nbx {
namespace {

std::string message_for(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "prog");
  return sweep_flag_message(
      CliArgs(static_cast<int>(argv.size()), argv.data()));
}

TEST(SweepBounds, FaultPercentIsFiniteAndInZeroToHundred) {
  for (const double p : {0.0, 0.05, 2.0, 75.0, 100.0}) {
    EXPECT_TRUE(valid_fault_percent(p)) << p;
  }
  for (const double p : {-5.0, -1e-9, 100.0000001, 150.0,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_FALSE(valid_fault_percent(p)) << p;
  }
}

TEST(SweepBounds, TrialsPerWorkloadIsInOneToAMillion) {
  EXPECT_TRUE(valid_trials_per_workload(1));
  EXPECT_TRUE(valid_trials_per_workload(kMaxTrialsPerWorkload));
  EXPECT_FALSE(valid_trials_per_workload(0));
  EXPECT_FALSE(valid_trials_per_workload(-1));
  EXPECT_FALSE(valid_trials_per_workload(kMaxTrialsPerWorkload + 1));
}

TEST(SweepBounds, FlagMessageNamesTheFlagAndItsValue) {
  for (const char* bad : {"150", "-5", "nan", "inf", "abc"}) {
    const std::string msg = message_for({"--percent", bad});
    EXPECT_NE(msg.find("--percent"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos)
        << msg;
  }
  for (const char* bad : {"0", "-1", "1000001", "2.5"}) {
    const std::string msg = message_for({"--trials", bad});
    EXPECT_NE(msg.find("--trials"), std::string::npos) << msg;
    EXPECT_NE(msg.find(std::string("'") + bad + "'"), std::string::npos)
        << msg;
  }
  EXPECT_EQ(message_for({}), "");
  EXPECT_EQ(message_for({"--percent", "100", "--trials", "1000000"}), "");
  EXPECT_EQ(message_for({"--percent", "0", "--trials", "1"}), "");
}

}  // namespace
}  // namespace nbx
