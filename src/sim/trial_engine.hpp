// trial_engine.hpp — the unified trial executor.
//
// The paper's architecture is one fault-masking idea applied recursively
// at bit, module and system level; the simulator mirrors that with one
// execution core applied at every level. A TrialEngine owns the
// (threads x batch_lanes x anatomy-sink x profiler x progress)
// composition exactly once:
//
//   * `threads`              — how work items fan out over the pool;
//   * `batch_lanes`          — scalar IAlu trials vs the SIMD-wide lane
//                              engine (src/simd/; 0 = scalar);
//   * anatomy                — the sweep_anatomy/point_anatomy variants
//                              attach an obs::Counters sink per item and
//                              fold per percent in deterministic order;
//   * `profiler`             — each backend's items are timed under the
//                              backend's stage name, folds under "fold";
//   * `on_point`             — optional per-data-point progress hook.
//
// Work enters through the TrialBackend concept: a backend exposes a flat
// item space (item_count), a profiler stage name (stage), and a body
// (run_item) that must be a pure function of the item index writing into
// per-index slots. The engine supplies scheduling; the backend supplies
// determinism — per-item RNG seeds are derived counter-style
// (MaskGenerator::trial_seed), so every thread count and schedule is
// bit-identical. The single-ALU sweep backends (scalar and batched) live
// behind sweep()/point(); system-level grid simulation reuses the same
// engine through grid/grid_trials.hpp.
#pragma once

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alu/alu_iface.hpp"
#include "common/stats.hpp"
#include "common/thread_pool.hpp"
#include "fault/mask_generator.hpp"
#include "fault/scenario.hpp"
#include "fault/sweep.hpp"
#include "obs/counters.hpp"
#include "obs/profiler.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx {

/// What portion of an ALU's site space receives injected faults.
/// kDatapathOnly is an ablation (not in the paper): the module voter and
/// any storage bits are kept fault-free to isolate their contribution.
enum class InjectionScope : std::uint8_t { kAll, kDatapathOnly };

/// Parameters of a single-ALU experiment trial set.
struct TrialConfig {
  double fault_percent = 0.0;
  FaultCountPolicy policy = FaultCountPolicy::kRoundNearest;
  std::size_t burst_length = 1;  ///< used by FaultCountPolicy::kBurst
  InjectionScope scope = InjectionScope::kAll;
  /// Sites eligible for injection when scope == kDatapathOnly (leading
  /// segment of the mask). Ignored for kAll.
  std::size_t datapath_sites = 0;
  std::size_t burst_rows = 1;        ///< 2-D strike height (kBurst only)
  std::size_t burst_row_stride = 0;  ///< sites per row; 0 = 1-D strikes
};

/// Result of one trial (one workload, one pass over its instructions).
struct TrialResult {
  double percent_correct = 0.0;
  std::size_t instructions = 0;
  std::size_t incorrect = 0;
};

/// Runs one workload through `alu` once, a fresh fault mask per
/// instruction, and scores correctness against the precomputed goldens.
/// With `anatomy` non-null, the trial additionally tallies the full
/// fault anatomy (injection volume, per-code decode outcomes, module
/// votes, end-to-end silent/caught classification) into it. Accounting
/// is passive — it draws nothing from `rng` and never changes the
/// simulated outcome, so attaching a sink cannot move any golden.
TrialResult run_trial(const IAlu& alu,
                      const std::vector<Instruction>& stream,
                      const TrialConfig& cfg, Rng& rng,
                      obs::Counters* anatomy = nullptr);

/// How a TrialEngine fans work items out across worker threads.
/// Per-trial RNG seeds are derived counter-style from (seed, ALU-name
/// hash, fault percent, workload index, trial index) — see
/// MaskGenerator::trial_seed — and samples are folded into statistics in
/// a fixed order, so results are bit-identical for every `threads`
/// value and every scheduling.
struct ParallelConfig {
  unsigned threads = 1;   ///< total worker threads; 1 = serial, 0 = all
                          ///< hardware threads
  /// Trials packed per bit-parallel batch (see src/simd/):
  /// 0 = scalar engine (default); 1..512 = SIMD-wide lane engine with
  /// that many lanes per group (rounded up internally to a whole
  /// 64/128/256/512-bit site row; the SIMD dispatch tier is CPUID-
  /// resolved per run, overridable via NBX_SIMD_TIER or
  /// simd::set_tier_override). Any value on any tier yields
  /// bit-identical results — lanes reuse the scalar per-trial seeds
  /// verbatim — so this is purely a throughput knob. Composes with
  /// `threads`: the work unit becomes a lane group instead of a single
  /// trial.
  unsigned batch_lanes = 0;
  /// Optional stage profiler (not owned): when set, the engine times
  /// each work item under its backend's stage name ("trial" scalar,
  /// "lane_group" batched, "grid_trial" system-level) and the
  /// statistics fold under "fold". Wall-clock only; never affects
  /// results.
  obs::Profiler* profiler = nullptr;
};

/// One plotted point: an ALU at one fault percentage, averaged over
/// `trials_per_workload` trials of each workload.
struct DataPoint {
  std::string alu;
  double fault_percent = 0.0;
  double mean_percent_correct = 0.0;
  double stddev = 0.0;
  double ci95 = 0.0;  ///< 95% CI half-width on the mean (Student's t)
  std::size_t samples = 0;
};

/// A full sweep of one ALU plus its fault anatomy: metrics[i] aggregates
/// the counters of every trial behind points[i] (same index, same fault
/// percent).
struct SweepAnatomy {
  std::vector<DataPoint> points;
  std::vector<obs::Counters> metrics;
};

/// One data point plus its aggregated fault anatomy.
struct AnatomyPoint {
  DataPoint point;
  obs::Counters counters;
};

/// Everything that defines one ALU's trip through the engine besides the
/// ALU itself and its workload streams.
struct SweepSpec {
  std::vector<double> percents;  ///< fault percentages to evaluate
  int trials_per_workload = kPaperTrialsPerWorkload;
  std::uint64_t seed = 0;
  FaultCountPolicy policy = FaultCountPolicy::kRoundNearest;
  InjectionScope scope = InjectionScope::kAll;
  std::size_t datapath_sites = 0;  ///< used when scope == kDatapathOnly
  std::size_t burst_length = 1;    ///< used by FaultCountPolicy::kBurst
  /// Correlated/aging overlay (fault/scenario.hpp). The default scenario
  /// is the paper's i.i.d. model: trial t's rate is schedule.at(percent,
  /// t, trials) and enters the counter-based trial seed by bit pattern,
  /// so a constant schedule reproduces historical results exactly and
  /// every schedule is bit-identical across threads × lanes × SIMD tiers.
  FaultScenario scenario;
};

/// A unit of schedulable work: a flat item space whose bodies are pure
/// functions of the item index (writing into per-index slots), plus the
/// profiler stage its items are timed under. Both the single-ALU sweep
/// backends (scalar trials, batched lane groups) and the system-level
/// grid backend satisfy this.
template <typename B>
concept TrialBackend = requires(B& b, const B& cb, std::size_t i) {
  { cb.item_count() } -> std::convertible_to<std::size_t>;
  { cb.stage() } -> std::convertible_to<std::string_view>;
  b.run_item(i);
};

/// The unified trial executor. Construction is cheap: the worker threads
/// start with the first parallel execute() and serve every later one.
/// Engines are freely copyable values; copies share those threads.
class TrialEngine {
 public:
  TrialEngine() = default;
  explicit TrialEngine(const ParallelConfig& par)
      : par_(par),
        pool_(resolve_threads(par.threads) > 1
                  ? std::make_shared<SharedPool>(par.threads)
                  : nullptr) {}

  [[nodiscard]] const ParallelConfig& parallel() const { return par_; }

  /// Installs a per-data-point progress hook: sweep()/sweep_anatomy()
  /// then evaluate one fault percentage at a time and invoke `cb` after
  /// each (percents.size() calls per sweep). Chunking the sweep this way
  /// cannot change any number — per-trial seeds hash the percent's
  /// value, not its position in the sweep.
  void set_on_point(std::function<void()> cb) { on_point_ = std::move(cb); }

  /// Evaluates `alu` at every percent in the spec. Backend selection
  /// follows parallel().batch_lanes: 0 = scalar IAlu trials, >= 1 =
  /// lane groups on the SIMD-wide lane engine; both bit-identical.
  [[nodiscard]] std::vector<DataPoint> sweep(
      const IAlu& alu,
      const std::vector<std::vector<Instruction>>& streams,
      const SweepSpec& spec) const;

  /// sweep() with an anatomy sink attached to every trial. The points
  /// are bit-identical to sweep()'s (accounting is passive), and the
  /// counters themselves are bit-identical across threads and
  /// batch_lanes: pure integer sums over a fixed trial population,
  /// merged in deterministic per-percent order.
  [[nodiscard]] SweepAnatomy sweep_anatomy(
      const IAlu& alu,
      const std::vector<std::vector<Instruction>>& streams,
      const SweepSpec& spec) const;

  /// One data point: the spec's single percentage (percents must hold
  /// exactly one entry), all samples folded into one DataPoint.
  [[nodiscard]] DataPoint point(
      const IAlu& alu,
      const std::vector<std::vector<Instruction>>& streams,
      const SweepSpec& spec) const;

  /// point() with the anatomy sink attached.
  [[nodiscard]] AnatomyPoint point_anatomy(
      const IAlu& alu,
      const std::vector<std::vector<Instruction>>& streams,
      const SweepSpec& spec) const;

  /// Runs a backend's whole item space under this engine's scheduling:
  /// serial for threads <= 1 (or a single item), the engine's pool
  /// otherwise, each item timed under the backend's profiler stage.
  template <TrialBackend B>
  void execute(B& backend) const {
    const std::size_t total = backend.item_count();
    const std::size_t st =
        par_.profiler != nullptr
            ? par_.profiler->stage_index(backend.stage())
            : 0;
    const auto run = [&](std::size_t i) {
      const obs::ScopedTimer timer(par_.profiler, st);
      backend.run_item(i);
    };
    if (resolve_threads(par_.threads) <= 1 || total <= 1) {
      for (std::size_t i = 0; i < total; ++i) {
        run(i);
      }
    } else {
      pool_->parallel_for(total, 0, run);
    }
  }

 private:
  SweepAnatomy run_spec(const IAlu& alu,
                        const std::vector<std::vector<Instruction>>& streams,
                        const SweepSpec& spec, bool want_anatomy) const;

  ParallelConfig par_;
  std::function<void()> on_point_;
  /// Kept across execute() calls: a run of short sweeps would otherwise
  /// spawn and join a worker per sweep, and under CPU contention the
  /// wait for that thread to be scheduled, twice per sweep, grows with
  /// the sweep rate. Null when par_.threads resolves to 1.
  std::shared_ptr<SharedPool> pool_;
};

// ------------------------------------------------------------------
// Sweep shard surface.
//
// The scalar sweep's flat [percent][workload][trial] item space, exposed
// as a public primitive so out-of-engine executors — the nbxd serve
// worker pool (src/serve/) shards a sweep by item range across workers —
// can run any contiguous slice and re-merge bit-identically with an
// in-engine run. Every item's RNG seed is a pure function of its
// coordinates (MaskGenerator::trial_seed), every item writes only its
// own absolute slot, and the fold accumulates slots in index order, so
// `run_sweep_items` over any partition of [0, sweep_item_count) followed
// by `fold_sweep_samples` per percent reproduces
// TrialEngine::sweep_anatomy (scalar backend) bit for bit.

/// Number of items in the flat scalar sweep grid:
/// percents × workloads × trials_per_workload.
[[nodiscard]] std::size_t sweep_item_count(
    const std::vector<std::vector<Instruction>>& streams,
    const SweepSpec& spec);

/// Runs items [first, last) of the flat grid. `samples` (and `per_item`,
/// when non-null) are *absolute-indexed* arrays of sweep_item_count()
/// slots: item i writes samples[i] / per_item[i] only, so disjoint
/// shards may target the same arrays from different threads.
void run_sweep_items(const IAlu& alu,
                     const std::vector<std::vector<Instruction>>& streams,
                     const SweepSpec& spec, std::size_t first,
                     std::size_t last, double* samples,
                     obs::Counters* per_item = nullptr);

/// Folds one percent's samples (its contiguous workloads × trials slice
/// of the flat grid) into a DataPoint in index order — the exact
/// accumulation the engine performs, so shard-and-merge folds match the
/// engine's doubles bit for bit.
[[nodiscard]] DataPoint fold_sweep_samples(std::string_view alu_name,
                                           double fault_percent,
                                           const double* samples,
                                           std::size_t count);

/// The paper's two workload streams over the standard 64-pixel image.
std::vector<std::vector<Instruction>> paper_streams(std::uint64_t seed = 42);

}  // namespace nbx
