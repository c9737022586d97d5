#include "serve/service.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>

#include "alu/alu_factory.hpp"
#include "common/cli.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "workload/image_ops.hpp"

namespace nbx::serve {

namespace {

using Clock = std::chrono::steady_clock;

double elapsed_us(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

// Admission budget: the most sweep items (percents x workloads x trials)
// one request may ask for. compute() holds a sample (8 B) and an
// obs::Counters (392 B) per item until the fold, so 2^18 items cap one
// admitted job at ~105 MB (2^18 x 400 B), well under 1 GiB. The largest
// request the repo's own clients send is bench_serve's, 2 percents x 2
// workloads x 256 trials = 1,024 items, 256x under the cap (perfbench's
// serve_mix sends 192, nbxq's default 10, serve-differential at most
// 18). The wire limits alone (64 percents x 10^6 trials) would admit
// 1.28 x 10^8 items, ~50 GB of counters.
constexpr std::size_t kMaxSweepItems = std::size_t{1} << 18;

// Most compute workers a front end accepts: 16 workers run at most
// 16 x 16 = 256 compute threads. The repo's own clients run 1-3.
constexpr std::int64_t kMaxWorkers = 16;

}  // namespace

std::string service_flag_message(const CliArgs& args) {
  struct Bound {
    const char* flag;
    std::int64_t lo;
    std::int64_t hi;
  };
  constexpr std::int64_t kUnbounded = std::numeric_limits<std::int64_t>::max();
  constexpr Bound kBounds[] = {
      {"workers", 1, kMaxWorkers},
      {"queue", 0, kUnbounded},
      {"min-shard", 0, kUnbounded},
      {"cache", 0, kUnbounded},
      {"retry-ms", 0, std::numeric_limits<std::uint32_t>::max()},
  };
  for (const Bound& b : kBounds) {
    if (!args.has(b.flag)) {
      continue;
    }
    const std::optional<std::int64_t> v = args.get_int(b.flag);
    if (!v.has_value() || *v < b.lo || *v > b.hi) {
      const std::string want =
          b.hi == kUnbounded ? ">= " + std::to_string(b.lo)
                             : "in [" + std::to_string(b.lo) + ", " +
                                   std::to_string(b.hi) + "]";
      return std::string("invalid value for --") + b.flag + ": '" +
             args.get(b.flag) + "' (want an integer " + want + ")";
    }
  }
  return {};
}

// Monotonic counters behind the public ServiceStats snapshot. Relaxed
// atomics: each is an independent tally, cross-counter invariants are
// only read after the relevant flights have completed.
struct SweepService::AtomicStats {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> coalesced{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> jobs_computed{0};
  std::atomic<std::uint64_t> shards_executed{0};
  std::atomic<std::uint64_t> pings{0};
  std::atomic<std::uint64_t> stats_requests{0};
};

SweepService::SweepService(const ServiceConfig& cfg)
    : cfg_(cfg), stats_(std::make_unique<AtomicStats>()) {
  cfg_.workers = std::max(cfg_.workers, 1u);
  cfg_.min_items_per_shard = std::max<std::size_t>(cfg_.min_items_per_shard, 1);
  cfg_.max_cache_entries = std::max<std::size_t>(cfg_.max_cache_entries, 1);
  if (obs::MetricsRegistry* reg = obs::metrics()) {
    m_.requests = &reg->counter("nbxd_requests_total");
    m_.hits = &reg->counter("nbxd_cache_hits_total");
    m_.misses = &reg->counter("nbxd_cache_misses_total");
    m_.coalesced = &reg->counter("nbxd_coalesced_total");
    m_.shed = &reg->counter("nbxd_shed_total");
    m_.errors = &reg->counter("nbxd_errors_total");
    m_.jobs = &reg->counter("nbxd_compute_jobs_total");
    m_.shards = &reg->counter("nbxd_shards_total");
    m_.queue_depth = &reg->gauge("nbxd_queue_depth");
    m_.cache_entries = &reg->gauge("nbxd_cache_entries");
    m_.hit_us = &reg->histogram("nbxd_hit_latency_us");
    m_.compute_us = &reg->histogram("nbxd_compute_latency_us");
  }
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

SweepService::~SweepService() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) {
    t.join();
  }
}

bool SweepService::validate(const SweepRequest& req,
                            std::string* error) const {
  const std::optional<AluSpec> spec = find_spec(req.alu);
  if (!spec.has_value()) {
    *error = "unknown alu '" + req.alu + "'";
    return false;
  }
  if (req.spec.scope == InjectionScope::kDatapathOnly &&
      (req.spec.datapath_sites < 1 ||
       req.spec.datapath_sites > spec->expected_sites)) {
    *error = "datapath_sites out of range for alu '" + req.alu + "'";
    return false;
  }
  if (req.spec.percents.empty()) {
    *error = "empty percents";
    return false;
  }
  const std::size_t items = req.spec.percents.size() *
                            paper_workloads().size() *
                            static_cast<std::size_t>(
                                req.spec.trials_per_workload);
  if (items > kMaxSweepItems) {
    *error = "spec asks for " + std::to_string(items) +
             " sweep items (percents x workloads x trials), over the "
             "admission budget of " + std::to_string(kMaxSweepItems);
    return false;
  }
  return true;
}

SweepService::Status SweepService::serve(const SweepRequest& req,
                                         std::string& out) {
  const Clock::time_point start = Clock::now();
  stats_->requests.fetch_add(1, std::memory_order_relaxed);
  if (m_.requests != nullptr) {
    m_.requests->increment();
  }
  const std::uint64_t fp = request_fingerprint(req);
  std::shared_ptr<Flight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (const auto it = cache_.find(fp); it != cache_.end()) {
      // The hot path the alloc audit pins down: one map probe, one
      // append into the caller's buffer, atomic tallies. No allocation.
      const std::shared_ptr<const std::string>& body = it->second;
      out.append(*body);
      lock.unlock();
      stats_->hits.fetch_add(1, std::memory_order_relaxed);
      if (m_.hits != nullptr) {
        m_.hits->increment();
        m_.hit_us->observe(elapsed_us(start));
      }
      return Status::kOk;
    }
    if (const auto it = flights_.find(fp); it != flights_.end()) {
      flight = it->second;
      stats_->coalesced.fetch_add(1, std::memory_order_relaxed);
      if (m_.coalesced != nullptr) {
        m_.coalesced->increment();
      }
    } else {
      if (queue_.size() >= cfg_.max_queue || stopping_) {
        lock.unlock();
        stats_->shed.fetch_add(1, std::memory_order_relaxed);
        if (m_.shed != nullptr) {
          m_.shed->increment();
        }
        render_shed_response(out, cfg_.retry_after_ms);
        return Status::kShed;
      }
      std::string verror;
      if (!validate(req, &verror)) {
        lock.unlock();
        stats_->errors.fetch_add(1, std::memory_order_relaxed);
        if (m_.errors != nullptr) {
          m_.errors->increment();
        }
        render_error_response(out, verror);
        return Status::kError;
      }
      flight = std::make_shared<Flight>();
      flights_.emplace(fp, flight);
      queue_.push_back(Job{fp, req, flight});
      stats_->misses.fetch_add(1, std::memory_order_relaxed);
      if (m_.misses != nullptr) {
        m_.misses->increment();
        m_.queue_depth->set(static_cast<double>(queue_.size()));
      }
      work_cv_.notify_one();
    }
  }
  {
    std::unique_lock<std::mutex> fl(flight->m);
    flight->cv.wait(fl, [&] { return flight->done; });
  }
  out.append(*flight->body);
  if (flight->ok) {
    if (m_.compute_us != nullptr) {
      m_.compute_us->observe(elapsed_us(start));
    }
    return Status::kOk;
  }
  stats_->errors.fetch_add(1, std::memory_order_relaxed);
  if (m_.errors != nullptr) {
    m_.errors->increment();
  }
  return Status::kError;
}

void SweepService::handle(std::string_view payload, std::string& out) {
  std::string error;
  const std::optional<ParsedRequest> req = parse_request(payload, &error);
  if (!req.has_value()) {
    stats_->errors.fetch_add(1, std::memory_order_relaxed);
    if (m_.errors != nullptr) {
      m_.errors->increment();
    }
    render_error_response(out, error);
    return;
  }
  switch (req->kind) {
    case RequestKind::kPing:
      stats_->pings.fetch_add(1, std::memory_order_relaxed);
      out += "{\"nbxd\":";
      out += std::to_string(kWireVersion);
      out += ",\"status\":\"ok\",\"kind\":\"pong\"}";
      return;
    case RequestKind::kStats: {
      stats_->stats_requests.fetch_add(1, std::memory_order_relaxed);
      const ServiceStats s = stats();
      out += "{\"nbxd\":";
      out += std::to_string(kWireVersion);
      out += ",\"status\":\"ok\",\"kind\":\"stats\"";
      const auto field = [&out](const char* name, std::uint64_t v) {
        out += ",\"";
        out += name;
        out += "\":";
        out += std::to_string(v);
      };
      field("requests", s.requests);
      field("hits", s.hits);
      field("misses", s.misses);
      field("coalesced", s.coalesced);
      field("shed", s.shed);
      field("errors", s.errors);
      field("jobs_computed", s.jobs_computed);
      field("shards_executed", s.shards_executed);
      field("pings", s.pings);
      field("stats_requests", s.stats_requests);
      field("queue_depth", s.queue_depth);
      field("cache_entries", s.cache_entries);
      out += "}";
      return;
    }
    case RequestKind::kSweep:
      serve(req->sweep, out);
      return;
  }
}

ServiceStats SweepService::stats() const {
  ServiceStats s;
  s.requests = stats_->requests.load(std::memory_order_relaxed);
  s.hits = stats_->hits.load(std::memory_order_relaxed);
  s.misses = stats_->misses.load(std::memory_order_relaxed);
  s.coalesced = stats_->coalesced.load(std::memory_order_relaxed);
  s.shed = stats_->shed.load(std::memory_order_relaxed);
  s.errors = stats_->errors.load(std::memory_order_relaxed);
  s.jobs_computed = stats_->jobs_computed.load(std::memory_order_relaxed);
  s.shards_executed =
      stats_->shards_executed.load(std::memory_order_relaxed);
  s.pings = stats_->pings.load(std::memory_order_relaxed);
  s.stats_requests = stats_->stats_requests.load(std::memory_order_relaxed);
  const std::lock_guard<std::mutex> lock(mu_);
  s.queue_depth = queue_.size();
  s.cache_entries = cache_.size();
  return s;
}

void SweepService::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) {
        // stopping_ and drained: exit. Queued jobs admitted before the
        // stop are always finished first (clean drain).
        return;
      }
      job = std::move(queue_.front());
      queue_.pop_front();
      if (m_.queue_depth != nullptr) {
        m_.queue_depth->set(static_cast<double>(queue_.size()));
      }
    }
    compute_job(job);
  }
}

void SweepService::compute_job(const Job& job) {
  std::string body;
  bool ok = true;
  try {
    const SweepRecord record = compute(job.req);
    render_ok_response(body, job.fingerprint, record);
  } catch (const std::exception& e) {
    ok = false;
    body.clear();
    render_error_response(body, std::string("compute failed: ") + e.what());
  }
  auto shared = std::make_shared<const std::string>(std::move(body));
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      cache_.emplace(job.fingerprint, shared);
      cache_order_.push_back(job.fingerprint);
      while (cache_order_.size() > cfg_.max_cache_entries) {
        cache_.erase(cache_order_.front());
        cache_order_.pop_front();
      }
      if (m_.cache_entries != nullptr) {
        m_.cache_entries->set(static_cast<double>(cache_.size()));
      }
    }
    flights_.erase(job.fingerprint);
  }
  stats_->jobs_computed.fetch_add(1, std::memory_order_relaxed);
  if (m_.jobs != nullptr) {
    m_.jobs->increment();
  }
  {
    const std::lock_guard<std::mutex> fl(job.flight->m);
    job.flight->body = shared;
    job.flight->ok = ok;
    job.flight->done = true;
  }
  job.flight->cv.notify_all();
}

SweepRecord SweepService::compute(const SweepRequest& req) {
  const std::unique_ptr<IAlu> alu = make_alu(req.alu);
  // validate() ran at admission; a null here would be a factory bug.
  if (alu == nullptr) {
    throw std::runtime_error("alu construction failed");
  }
  const std::vector<std::vector<Instruction>> streams =
      paper_streams(req.spec.seed);
  const std::size_t items = sweep_item_count(streams, req.spec);
  const std::size_t per_percent = items / req.spec.percents.size();
  std::vector<double> samples(items, 0.0);
  std::vector<obs::Counters> per_item(items);

  // Shard by contiguous item range. Every shard writes only its own
  // absolute slots and every cell's seed is a pure function of its
  // coordinates, so any shard count — including 1 — re-merges
  // bit-identically with a direct TrialEngine run.
  const unsigned pool_threads = resolve_threads(cfg_.workers);
  std::size_t shards = 1;
  if (pool_threads > 1 && items >= 2 * cfg_.min_items_per_shard) {
    shards = std::min<std::size_t>(items / cfg_.min_items_per_shard,
                                   std::size_t{pool_threads} * 4);
  }
  if (shards <= 1) {
    run_sweep_items(*alu, streams, req.spec, 0, items, samples.data(),
                    per_item.data());
    stats_->shards_executed.fetch_add(1, std::memory_order_relaxed);
    if (m_.shards != nullptr) {
      m_.shards->increment();
    }
  } else {
    const std::size_t per_shard = (items + shards - 1) / shards;
    ThreadPool pool(pool_threads);
    pool.parallel_for(shards, 1, [&](std::size_t s) {
      const std::size_t first = s * per_shard;
      const std::size_t last = std::min(items, first + per_shard);
      if (first < last) {
        run_sweep_items(*alu, streams, req.spec, first, last,
                        samples.data(), per_item.data());
      }
    });
    stats_->shards_executed.fetch_add(shards, std::memory_order_relaxed);
    if (m_.shards != nullptr) {
      m_.shards->add(shards);
    }
  }

  // Re-merge: the engine's own fold per percent (index order), plus the
  // per-percent anatomy sums merged in index order — both exactly what
  // TrialEngine::sweep_anatomy does, so the record is bit-identical.
  SweepRecord record;
  record.alu = req.alu;
  record.points.reserve(req.spec.percents.size());
  record.point_metrics.assign(req.spec.percents.size(), obs::Counters{});
  for (std::size_t pi = 0; pi < req.spec.percents.size(); ++pi) {
    record.points.push_back(
        fold_sweep_samples(req.alu, req.spec.percents[pi],
                           samples.data() + pi * per_percent, per_percent));
    for (std::size_t i = 0; i < per_percent; ++i) {
      record.point_metrics[pi] += per_item[pi * per_percent + i];
    }
  }
  return record;
}

}  // namespace nbx::serve
