// service.hpp — the nbxd sweep service: content-addressed cache,
// single-flight coalescing, sharded compute, admission control.
//
// Everything this simulator computes is a pure function of a SweepSpec:
// counter-based seeding (MaskGenerator::trial_seed) makes every
// (percent, workload, trial) cell reproducible from its coordinates, and
// the golden-registry + seed-chain fingerprints pin the arithmetic. The
// service exploits that determinism three ways:
//
//   * content-addressed cache — request_fingerprint(req) is the identity
//     of the *answer*, not the request text, so repeated queries (the
//     "millions of users" workload: many designers, few distinct specs)
//     are served from a rendered-response cache in O(1) with zero
//     allocations on the hit path;
//   * single-flight coalescing — duplicate specs in flight share one
//     computation: followers block on the leader's Flight and receive
//     the identical bytes (exactly-one compute per unique fingerprint);
//   * shard-and-merge — large sweeps split by item range over the flat
//     [percent][workload][trial] grid (run_sweep_items) across a thread
//     pool and re-fold with the engine's own fold, bit-identical to a
//     direct TrialEngine run by construction.
//
// Admission control bounds the compute queue: when it is full, new
// unique specs are shed with a structured retry-after response (cache
// hits and coalesced duplicates are never shed — they cost no compute).
// It also bounds one job: a spec over the fixed sweep-item budget
// (service.cpp) gets a status:"error" response instead of a compute.
// All decisions are observable via ServiceStats (always on, atomics) and
// obs::MetricsRegistry (when installed; nbxd_* series, see
// docs/SERVING.md).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/wire.hpp"

namespace nbx {
class CliArgs;
}  // namespace nbx

namespace nbx::obs {
class MetricCounter;
class MetricGauge;
class MetricHistogram;
}  // namespace nbx::obs

namespace nbx::serve {

/// Tuning knobs for one SweepService.
struct ServiceConfig {
  /// Compute worker threads (>= 1). Each worker's job also shards over
  /// a pool this wide (the worker plus workers - 1 helpers), so a busy
  /// service runs workers x workers compute threads.
  unsigned workers = 2;
  std::size_t max_queue = 16;  ///< queued jobs before load-shedding
  /// Minimum items per shard: jobs smaller than two shards' worth run
  /// unsharded (shard bookkeeping would dominate).
  std::size_t min_items_per_shard = 32;
  std::size_t max_cache_entries = 4096;  ///< FIFO-evicted beyond this
  std::uint32_t retry_after_ms = 50;     ///< hint in shed responses
};

/// The exit-2 diagnostic for the ServiceConfig flags a command line
/// carries (nbxd, bench_serve): --workers must be an integer in
/// [1, 16]; --queue, --min-shard and --cache integers >= 0;
/// --retry-ms an integer in [0, 2^32 - 1]. Names the first flag that is
/// present but unparsable or out of bounds, e.g. "invalid value for
/// --workers: '-1' (want an integer in [1, 16])". Empty when every one
/// is absent or valid, after which each casts safely to its field.
[[nodiscard]] std::string service_flag_message(const CliArgs& args);

/// Monotonic service counters (atomically maintained, always available —
/// the stats request kind and the integration tests read these even when
/// no MetricsRegistry is installed).
struct ServiceStats {
  std::uint64_t requests = 0;   ///< sweep requests accepted for serving
  std::uint64_t hits = 0;       ///< served from the rendered cache
  std::uint64_t misses = 0;     ///< became the leader of a new compute
  std::uint64_t coalesced = 0;  ///< joined an in-flight duplicate
  std::uint64_t shed = 0;       ///< rejected by admission control
  std::uint64_t errors = 0;     ///< structured error responses
  std::uint64_t jobs_computed = 0;    ///< compute jobs finished
  std::uint64_t shards_executed = 0;  ///< run_sweep_items shards run
  std::uint64_t pings = 0;
  std::uint64_t stats_requests = 0;
  std::size_t queue_depth = 0;    ///< jobs waiting right now
  std::size_t cache_entries = 0;  ///< rendered responses held
};

/// The in-process sweep service. A Server (server.hpp) exposes one over
/// a unix socket; tests and the serve-differential oracle family drive
/// it directly.
class SweepService {
 public:
  enum class Status : std::uint8_t { kOk, kError, kShed };

  explicit SweepService(const ServiceConfig& cfg = {});
  ~SweepService();
  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Serves one parsed sweep request: appends exactly one complete
  /// response payload (ok / error / shed) to `out` and returns its
  /// status. Blocks while a computation is required (leader or
  /// coalesced follower). The cache-hit path performs no allocations
  /// (append into `out` aside, whose capacity the caller amortizes).
  Status serve(const SweepRequest& req, std::string& out);

  /// Full wire path: parses one request payload of any kind and appends
  /// exactly one response payload. Never throws, never crashes on
  /// malformed input — that is the protocol contract the
  /// serve-differential family enforces with truncated/bit-flipped/
  /// garbage payloads.
  void handle(std::string_view payload, std::string& out);

  /// Snapshot of the service counters.
  [[nodiscard]] ServiceStats stats() const;

  [[nodiscard]] const ServiceConfig& config() const { return cfg_; }

 private:
  // One in-flight computation: the leader computes, followers wait on
  // the condition variable and copy the shared rendered body.
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool ok = false;
    std::shared_ptr<const std::string> body;
  };

  struct Job {
    std::uint64_t fingerprint = 0;
    SweepRequest req;
    std::shared_ptr<Flight> flight;
  };

  void worker_loop();
  void compute_job(const Job& job);
  [[nodiscard]] SweepRecord compute(const SweepRequest& req);
  bool validate(const SweepRequest& req, std::string* error) const;

  ServiceConfig cfg_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  bool stopping_ = false;
  std::deque<Job> queue_;
  std::unordered_map<std::uint64_t, std::shared_ptr<Flight>> flights_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const std::string>>
      cache_;
  std::deque<std::uint64_t> cache_order_;  // FIFO eviction
  std::vector<std::thread> workers_;

  struct AtomicStats;
  std::unique_ptr<AtomicStats> stats_;

  // Pre-resolved metric handles (nullptr when no registry was installed
  // at construction): hot-path increments stay allocation-free.
  struct MetricHandles {
    obs::MetricCounter* requests = nullptr;
    obs::MetricCounter* hits = nullptr;
    obs::MetricCounter* misses = nullptr;
    obs::MetricCounter* coalesced = nullptr;
    obs::MetricCounter* shed = nullptr;
    obs::MetricCounter* errors = nullptr;
    obs::MetricCounter* jobs = nullptr;
    obs::MetricCounter* shards = nullptr;
    obs::MetricGauge* queue_depth = nullptr;
    obs::MetricGauge* cache_entries = nullptr;
    obs::MetricHistogram* hit_us = nullptr;
    obs::MetricHistogram* compute_us = nullptr;
  };
  MetricHandles m_;
};

}  // namespace nbx::serve
