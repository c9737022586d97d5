// profiler.hpp — per-stage wall-clock profiling for the sweep engine.
//
// A Profiler owns a set of named stages ("trial", "lane_group",
// "fold", ...). Code brackets a region with a ScopedTimer; on scope
// exit the elapsed time lands in that stage's histogram and,
// optionally, an event list for Chrome-trace export. Each stage's
// histogram is an obs::MetricHistogram of microseconds in a registry
// the profiler owns, so a sample is one lock-free sharded observe().
//
// Timing is inherently nondeterministic — it lives beside, never
// inside, the deterministic Counters. A null Profiler* is the off
// switch: ScopedTimer(nullptr, ...) never reads the clock.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"

namespace nbx::obs {

/// One stage's timings in seconds, read from its histogram.
class StageTimes {
 public:
  /// From a snapshot of a histogram of microseconds.
  explicit StageTimes(const MetricHistogram::Data& us);

  std::uint64_t count = 0;
  double total_seconds = 0.0;
  double min_seconds = 0.0;
  double max_seconds = 0.0;

  [[nodiscard]] double mean_seconds() const;
  /// Quantiles interpolated from the log2 buckets (MetricHistogram::
  /// Data::quantile), clamped to [min, max]; 0 when empty.
  [[nodiscard]] double p50_seconds() const;
  [[nodiscard]] double p95_seconds() const;
  [[nodiscard]] double p99_seconds() const;

 private:
  MetricHistogram::Data us_;
};

/// One named stage and its accumulated timings.
struct StageProfile {
  std::string name;
  StageTimes hist;
};

/// Thread-safe stage registry + accumulator.
class Profiler {
 public:
  /// Most stages one profiler holds; stage_index throws past it.
  static constexpr std::size_t kMaxStages = 64;

  /// With capture_events=true every timed region is also kept as a
  /// discrete event (stage, start, duration, thread) for Chrome-trace
  /// export. Summary histograms are always maintained.
  explicit Profiler(bool capture_events = false);

  /// Index for a stage name, creating the stage on first use.
  std::size_t stage_index(std::string_view name);

  /// Folds one sample into a stage (start_seconds is relative to the
  /// profiler's construction; used only for event capture). Lock-free
  /// unless events are captured.
  void record(std::size_t stage, double start_seconds, double dur_seconds);

  /// Seconds since this profiler was constructed.
  double now_seconds() const;

  /// Snapshot of all stages, in creation order.
  std::vector<StageProfile> stages() const;

  /// Human-readable per-stage table: count / total / mean / min / max.
  void write_summary(std::ostream& os) const;

  /// Chrome-trace JSON ({"traceEvents":[...]}): load in chrome://tracing
  /// or Perfetto. Without capture_events the event array is empty.
  void write_chrome_trace(std::ostream& os) const;

  /// Machine-readable per-stage summary, one JSON object:
  /// {"stages":[{"name":...,"count":...,"total_seconds":...,
  ///   "mean_seconds":...,"min_seconds":...,"max_seconds":...,
  ///   "p50_seconds":...,"p95_seconds":...,"p99_seconds":...},...]}
  void write_profile_json(std::ostream& os) const;

 private:
  std::uint32_t tid_of(std::thread::id id);

  struct Event {
    std::uint32_t stage;
    std::uint32_t tid;
    double start_us;
    double dur_us;
  };

  MetricsRegistry registry_;  // one histogram per stage
  /// Stage i's histogram; set once, before stage_index returns i.
  std::array<std::atomic<MetricHistogram*>, kMaxStages> hists_{};
  mutable std::mutex mu_;  // names_, tids_, events_
  std::vector<std::string> names_;
  std::vector<std::pair<std::thread::id, std::uint32_t>> tids_;
  std::vector<Event> events_;
  bool capture_events_;
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII region timer. Inert (no clock read) when profiler is null.
class ScopedTimer {
 public:
  ScopedTimer(Profiler* profiler, std::size_t stage)
      : profiler_(profiler), stage_(stage) {
    if (profiler_ != nullptr) start_ = profiler_->now_seconds();
  }
  ~ScopedTimer() {
    if (profiler_ != nullptr) {
      profiler_->record(stage_, start_, profiler_->now_seconds() - start_);
    }
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Profiler* profiler_;
  std::size_t stage_ = 0;
  double start_ = 0.0;
};

}  // namespace nbx::obs
