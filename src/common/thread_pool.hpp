// thread_pool.hpp — a small fixed-size worker pool for the experiment
// harness.
//
// The fault-injection sweeps are embarrassingly parallel at trial
// granularity (every trial owns its RNG, mask buffers and result slot),
// so the pool only needs one primitive: parallel_for over an index
// range with dynamic chunked scheduling. Determinism is NOT the pool's
// job — callers must make body(i) a pure function of i (the harness
// derives per-trial seeds counter-style, see MaskGenerator::trial_seed)
// and write results into per-index slots; then any thread count and any
// scheduling order produce bit-identical output.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nbx {

namespace obs {
class MetricCounter;
}  // namespace obs

/// Resolves a requested thread count: 0 means "all hardware threads"
/// (at least 1); anything else is returned unchanged.
unsigned resolve_threads(unsigned requested);

/// Fixed-size pool of persistent worker threads plus the calling thread.
class ThreadPool {
 public:
  /// `threads` is the total concurrency including the caller's thread:
  /// the pool spawns threads-1 workers. 0 = hardware concurrency.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (spawned workers + the calling thread).
  [[nodiscard]] unsigned thread_count() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(i) for every i in [0, n), distributing chunks of `chunk`
  /// consecutive indices from a shared counter. The calling thread
  /// participates; returns after every index has completed. `chunk` 0
  /// picks a heuristic (~4 chunks per thread). body must be safe to
  /// call concurrently for distinct i. If body throws on the calling
  /// thread, no further chunks are handed out; the workers' chunks in
  /// flight finish, and the exception is rethrown with the pool ready
  /// for the next job.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  /// Grab chunks until the current job is exhausted. is_worker marks
  /// calls from spawned workers (for the steals metric) vs the caller.
  void drain(bool is_worker);

  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable wake_cv_;  ///< workers wait for a new epoch
  std::condition_variable done_cv_;  ///< caller waits for epoch completion
  std::uint64_t epoch_ = 0;          ///< bumped once per parallel_for
  std::size_t finished_ = 0;         ///< workers done with current epoch
  bool stop_ = false;

  // Current job (valid for the duration of one parallel_for call).
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  std::size_t chunk_ = 1;
  std::atomic<std::size_t> next_{0};

  // Metric handles, resolved per parallel_for when a registry is
  // attached (null otherwise — the zero-overhead-off switch). Valid for
  // the duration of one job, like body_.
  obs::MetricCounter* chunks_metric_ = nullptr;
  obs::MetricCounter* steals_metric_ = nullptr;
  obs::MetricCounter* busy_us_metric_ = nullptr;
};

/// A ThreadPool started by its first job and kept for every later one,
/// for an owner that runs many short jobs: its workers are spawned and
/// joined once, not per job. A job that finds the pool busy (a
/// concurrent or nested caller) runs on a temporary pool of its own.
class SharedPool {
 public:
  /// `threads` as for ThreadPool.
  explicit SharedPool(unsigned threads) : threads_(threads) {}

  /// ThreadPool::parallel_for on the kept pool, or on a temporary one
  /// while the kept pool is busy.
  void parallel_for(std::size_t n, std::size_t chunk,
                    const std::function<void(std::size_t)>& body);

 private:
  unsigned threads_;
  std::atomic<bool> busy_{false};  ///< a job is running on pool_
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace nbx
