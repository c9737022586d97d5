// sweep.hpp — the paper's standard fault-percentage sweep (§4), and the
// bounds on a user-supplied sweep.
//
// "We run simulations at eighteen different injected fault percentages:
//  0, 0.05, 0.1, 0.5, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 20, 30, 50, 75."
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace nbx {

class CliArgs;

/// The 18 x-axis points of Figures 7, 8 and 9, in plot order.
inline constexpr std::array<double, 18> kPaperFaultPercentages = {
    0.0, 0.05, 0.1, 0.5, 1.0, 2.0, 3.0,  4.0,  5.0,
    6.0, 7.0,  8.0, 9.0, 10.0, 20.0, 30.0, 50.0, 75.0};

/// Trials per workload per data point (paper: five), and workloads per
/// point (two: reverse video + hue shift), so each plotted point averages
/// ten samples.
inline constexpr int kPaperTrialsPerWorkload = 5;

/// Returns the paper sweep as a vector (convenient for harness APIs that
/// accept caller-specified sweeps).
std::vector<double> paper_sweep();

/// A reduced sweep for fast smoke tests / CI.
std::vector<double> smoke_sweep();

/// Most trials per workload a front end accepts.
inline constexpr std::int64_t kMaxTrialsPerWorkload = 1'000'000;

/// The sweep inputs every front end accepts (nbxd's wire parser, nbxsim,
/// bench_simd). A fault percentage must be finite and in [0, 100] — the
/// domain MaskGenerator asserts, and NDEBUG builds drop that assert.
/// Trials per workload must be in [1, kMaxTrialsPerWorkload].
[[nodiscard]] bool valid_fault_percent(double percent);
[[nodiscard]] bool valid_trials_per_workload(std::int64_t trials);

/// The exit-2 diagnostic for a command line's --percent and --trials.
/// It names the first of the two that is present but unparsable or out
/// of bounds, e.g. "invalid value for --percent: '150' (want a finite
/// number in [0, 100])". Empty when both are absent or valid.
[[nodiscard]] std::string sweep_flag_message(const CliArgs& args);

}  // namespace nbx
