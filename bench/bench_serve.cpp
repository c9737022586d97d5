// bench_serve — load generator for the nbxd serving stack.
//
// Starts a real Server (unix socket, in this process), plays the
// expected production shape at it — a few distinct specs, each requested
// many times — and measures the two latency populations that define
// sweep-as-a-service: cold (a compute job behind the content-addressed
// cache miss) and cached (pure lookup + socket round trip). The run is
// also a correctness gate:
//
//   * every cached response must be byte-identical to its cold response
//     (and the cold response to a direct TrialEngine render);
//   * the hit rate must reach 99% — the workload is built to produce it,
//     so falling short means the cache or fingerprint is broken;
//   * cached p99 must undercut cold p99 by >= 100x — the cache has to
//     actually short-circuit the compute, not just memoize in name.
//
// Results land in BENCH_serve.json (schema: docs/OBSERVABILITY.md) with
// the first spec's direct-engine sweep embedded, so `nbxreport --gate`
// can self-compare the document in bench_smoke.
//
//   bench_serve [--trials N] [--seed N] [--smoke] [--out PATH]
//               [--specs D] [--repeats R] [--workers N]
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "alu/alu_factory.hpp"
#include "bench/bench_cli.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/bench_json.hpp"
#include "sim/trial_engine.hpp"

namespace {

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) {
    return 0.0;
  }
  std::sort(xs.begin(), xs.end());
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(xs.size() - 1) + 0.5);
  return xs[std::min(idx, xs.size() - 1)];
}

double micros_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nbx;
  const bench::BenchCli cli(
      argc, argv,
      "nbxd serving-stack load generator: cold-vs-cached latency over a\n"
      "real unix socket, with hit-rate, speedup and byte-identity gates.",
      bench::kTrials | bench::kSeed | bench::kSmoke | bench::kOut,
      {{"--specs D", "distinct sweep specs (default 4)"},
       {"--repeats R", "cached repeats per spec (default 120)"},
       {"--workers N", "service worker threads, 1-16 (default 2)"}});
  if (cli.done()) {
    return cli.status();
  }
  const bool smoke = cli.smoke();
  // Cold specs carry enough trials that a compute job dwarfs a socket
  // round trip; the 100x gate below is the enforcement.
  const int trials = cli.trials(smoke ? 64 : 256);
  const std::uint64_t seed = cli.seed(2026);
  // Bounds are checked on the signed values: cast first, and -1 would
  // become a count of billions.
  const std::string bad_workers = serve::service_flag_message(cli.args());
  if (!bad_workers.empty()) {
    std::cerr << "bench_serve: " << bad_workers << "\n";
    return 2;
  }
  const std::int64_t specs_arg = cli.args().get_int("specs", 4);
  const std::int64_t repeats_arg = cli.args().get_int("repeats", 120);
  if (specs_arg < 1) {
    std::cerr << "bench_serve: need --specs >= 1\n";
    return 2;
  }
  if (repeats_arg < 99) {
    std::cerr << "bench_serve: need --repeats >= 99 (the 99% hit-rate "
                 "gate)\n";
    return 2;
  }
  const auto specs = static_cast<std::size_t>(specs_arg);
  const auto repeats = static_cast<std::size_t>(repeats_arg);
  const auto workers =
      static_cast<unsigned>(cli.args().get_int("workers", 2));

  char socket_path[96];
  std::snprintf(socket_path, sizeof(socket_path),
                "/tmp/nbx_bench_serve_%d.sock",
                static_cast<int>(::getpid()));
  serve::ServerConfig server_cfg;
  server_cfg.socket_path = socket_path;
  server_cfg.service.workers = workers;
  serve::Server server(server_cfg);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "bench_serve: " << error << "\n";
    return 1;
  }

  std::vector<std::string> payloads;
  std::vector<serve::SweepRequest> requests;
  for (std::size_t i = 0; i < specs; ++i) {
    serve::SweepRequest req;
    req.alu = "aluss";
    req.spec.percents = {1.0, 2.0};
    req.spec.trials_per_workload = trials;
    req.spec.seed = seed + i;
    requests.push_back(req);
    payloads.push_back(serve::render_sweep_request(req));
  }

  serve::ServeClient client;
  if (!client.connect(socket_path, &error)) {
    std::cerr << "bench_serve: " << error << "\n";
    return 1;
  }

  std::cout << "Serve bench: " << specs << " distinct specs ("
            << trials << " trials each) x " << repeats
            << " cached repeats, " << workers << " workers, socket "
            << socket_path << "\n\n";

  // Cold phase: first touch of every fingerprint.
  std::vector<std::string> cold(specs);
  std::vector<double> cold_us;
  for (std::size_t i = 0; i < specs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    if (!client.request(payloads[i], cold[i], &error)) {
      std::cerr << "bench_serve: cold request failed: " << error << "\n";
      return 1;
    }
    cold_us.push_back(micros_since(t0));
  }

  // Cached phase: round-robin repeats; every byte compared to cold.
  std::vector<double> cached_us;
  std::string response;
  const auto cached_t0 = std::chrono::steady_clock::now();
  for (std::size_t r = 0; r < repeats; ++r) {
    for (std::size_t i = 0; i < specs; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!client.request(payloads[i], response, &error)) {
        std::cerr << "bench_serve: cached request failed: " << error
                  << "\n";
        return 1;
      }
      cached_us.push_back(micros_since(t0));
      if (response != cold[i]) {
        std::cerr << "bench_serve: GATE FAIL — cached response for spec "
                  << i << " is not byte-identical to its cold response\n";
        return 1;
      }
    }
  }
  const double cached_seconds = micros_since(cached_t0) / 1e6;

  // Direct-engine cross-check + the embedded sweep for nbxreport.
  const auto alu = make_alu(requests[0].alu);
  TrialEngine engine{ParallelConfig{}};
  const SweepAnatomy direct = engine.sweep_anatomy(
      *alu, paper_streams(requests[0].spec.seed), requests[0].spec);
  SweepRecord record;
  record.alu = requests[0].alu;
  record.points = direct.points;
  record.point_metrics = direct.metrics;
  std::string direct_render;
  serve::render_ok_response(direct_render,
                            serve::request_fingerprint(requests[0]),
                            record);
  if (cold[0] != direct_render) {
    std::cerr << "bench_serve: GATE FAIL — served bytes differ from the "
                 "direct TrialEngine render\n";
    return 1;
  }

  const serve::ServiceStats stats = server.service().stats();
  server.stop();

  const double total_requests = static_cast<double>(stats.requests);
  const double hit_rate =
      total_requests > 0 ? static_cast<double>(stats.hits) / total_requests
                         : 0.0;
  const double cold_p50 = percentile(cold_us, 0.50);
  const double cold_p99 = percentile(cold_us, 0.99);
  const double cached_p50 = percentile(cached_us, 0.50);
  const double cached_p99 = percentile(cached_us, 0.99);
  const double speedup_p99 = cached_p99 > 0 ? cold_p99 / cached_p99 : 0.0;
  const double specs_per_second =
      cached_seconds > 0
          ? static_cast<double>(cached_us.size()) / cached_seconds
          : 0.0;

  std::printf("%-22s %12s %12s\n", "", "p50 (us)", "p99 (us)");
  std::printf("%-22s %12.1f %12.1f\n", "cold (compute)", cold_p50,
              cold_p99);
  std::printf("%-22s %12.1f %12.1f\n", "cached (hit)", cached_p50,
              cached_p99);
  std::printf("\nhit rate %.4f   p99 speedup %.1fx   %.0f cached specs/s\n",
              hit_rate, speedup_p99, specs_per_second);
  std::printf("service: %llu requests, %llu hits, %llu misses, "
              "%llu jobs, %llu shards\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.hits),
              static_cast<unsigned long long>(stats.misses),
              static_cast<unsigned long long>(stats.jobs_computed),
              static_cast<unsigned long long>(stats.shards_executed));

  BenchReport report;
  report.bench = "serve";
  report.seed = seed;
  report.threads = workers;
  report.trials_per_workload = trials;
  report.trials = static_cast<std::size_t>(trials) * 2 * 2 * specs;
  report.wall_seconds = cached_seconds;
  report.metrics = {
      {"cold_p50_us", cold_p50},
      {"cold_p99_us", cold_p99},
      {"cached_p50_us", cached_p50},
      {"cached_p99_us", cached_p99},
      {"hit_rate", hit_rate},
      {"p99_speedup", speedup_p99},
      {"cached_specs_per_second", specs_per_second},
      {"distinct_specs", static_cast<double>(specs)},
      {"cached_requests", static_cast<double>(cached_us.size())},
      {"jobs_computed", static_cast<double>(stats.jobs_computed)},
      {"shards_executed", static_cast<double>(stats.shards_executed)},
  };
  report.extra = {{"socket", "unix"}, {"alu", requests[0].alu}};
  report.sweeps = {record};
  const std::string written = save_bench_json(report, cli.out());
  if (!written.empty()) {
    std::cout << "\nwrote " << written << "\n";
  }

  // The enforced gates. Byte-identity already passed above.
  bool ok = true;
  if (hit_rate < 0.99) {
    std::cerr << "bench_serve: GATE FAIL — hit rate " << hit_rate
              << " < 0.99\n";
    ok = false;
  }
  if (stats.jobs_computed != specs) {
    std::cerr << "bench_serve: GATE FAIL — " << stats.jobs_computed
              << " compute jobs for " << specs << " unique specs\n";
    ok = false;
  }
  if (speedup_p99 < 100.0) {
    std::cerr << "bench_serve: GATE FAIL — cached p99 only "
              << speedup_p99 << "x below cold p99 (need >= 100x)\n";
    ok = false;
  }
  return ok ? 0 : 1;
}
