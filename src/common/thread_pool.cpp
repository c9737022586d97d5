#include "common/thread_pool.hpp"

#include <algorithm>
#include <chrono>
#include <exception>

#include "obs/metrics.hpp"

namespace nbx {

unsigned resolve_threads(unsigned requested) {
  if (requested != 0) {
    return requested;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = resolve_threads(threads);
  workers_.reserve(total - 1);
  for (unsigned i = 0; i + 1 < total; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void ThreadPool::drain(bool is_worker) {
  // Metrics path: only read the clock and count chunks when a registry
  // resolved handles for this job; one local tally, one add at the end.
  const bool instrumented = chunks_metric_ != nullptr;
  const auto t0 = instrumented ? std::chrono::steady_clock::now()
                               : std::chrono::steady_clock::time_point{};
  std::uint64_t local_chunks = 0;
  while (true) {
    const std::size_t begin = next_.fetch_add(chunk_);
    if (begin >= n_) {
      break;
    }
    ++local_chunks;
    const std::size_t end = std::min(begin + chunk_, n_);
    for (std::size_t i = begin; i < end; ++i) {
      (*body_)(i);
    }
  }
  if (instrumented && local_chunks > 0) {
    chunks_metric_->add(local_chunks);
    if (is_worker) {
      steals_metric_->add(local_chunks);
    }
    const auto busy = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - t0);
    busy_us_metric_->add(static_cast<std::uint64_t>(busy.count()));
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(mu_);
      wake_cv_.wait(lk, [&] { return stop_ || epoch_ != seen; });
      if (stop_) {
        return;
      }
      seen = epoch_;
    }
    drain(/*is_worker=*/true);
    {
      std::lock_guard<std::mutex> lk(mu_);
      ++finished_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) {
    return;
  }
  if (workers_.empty()) {
    if (obs::MetricsRegistry* reg = obs::metrics()) {
      reg->counter("threadpool_parallel_for_total").increment();
      reg->counter("threadpool_items_total").add(n);
      reg->gauge("threadpool_threads").set(1.0);
    }
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }
  if (chunk == 0) {
    chunk = std::max<std::size_t>(1, n / (4 * thread_count()));
  }
  // Resolve metric handles for this job if a registry is attached; one
  // pointer test when detached, nothing else.
  obs::MetricCounter* chunks_metric = nullptr;
  obs::MetricCounter* steals_metric = nullptr;
  obs::MetricCounter* busy_metric = nullptr;
  obs::MetricsRegistry* const reg = obs::metrics();
  if (reg != nullptr) {
    chunks_metric = &reg->counter("threadpool_chunks_total");
    steals_metric = &reg->counter("threadpool_steals_total");
    busy_metric = &reg->counter("threadpool_busy_microseconds_total");
    reg->counter("threadpool_parallel_for_total").increment();
    reg->counter("threadpool_items_total").add(n);
    reg->gauge("threadpool_threads").set(thread_count());
    reg->gauge("threadpool_queue_depth")
        .set(static_cast<double>((n + chunk - 1) / chunk));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_ = n;
    chunk_ = chunk;
    next_.store(0);
    finished_ = 0;
    chunks_metric_ = chunks_metric;
    steals_metric_ = steals_metric;
    busy_us_metric_ = busy_metric;
    ++epoch_;
  }
  wake_cv_.notify_all();
  std::exception_ptr error;
  try {
    drain(/*is_worker=*/false);  // the caller participates
  } catch (...) {
    error = std::current_exception();
    next_.store(n);  // hand out nothing more
  }
  std::unique_lock<std::mutex> lk(mu_);
  // Wait for every worker to have finished the epoch (not just for the
  // counter to be exhausted) so `body` cannot dangle.
  done_cv_.wait(lk, [&] { return finished_ == workers_.size(); });
  body_ = nullptr;
  if (reg != nullptr) {
    reg->gauge("threadpool_queue_depth").set(0.0);
  }
  chunks_metric_ = nullptr;
  steals_metric_ = nullptr;
  busy_us_metric_ = nullptr;
  if (error) {
    std::rethrow_exception(error);
  }
}

void SharedPool::parallel_for(std::size_t n, std::size_t chunk,
                              const std::function<void(std::size_t)>& body) {
  bool idle = false;
  if (!busy_.compare_exchange_strong(idle, true, std::memory_order_acquire)) {
    ThreadPool pool(threads_);
    pool.parallel_for(n, chunk, body);
    return;
  }
  struct Release {
    std::atomic<bool>& busy;
    ~Release() { busy.store(false, std::memory_order_release); }
  } const release{busy_};
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(threads_);
  }
  pool_->parallel_for(n, chunk, body);
}

}  // namespace nbx
