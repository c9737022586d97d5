// nbxd — the NanoBox sweep daemon.
//
// Serves SweepSpec evaluations over a unix socket with a
// content-addressed result cache, single-flight coalescing, sharded
// compute and admission control (src/serve/). Runs until SIGINT/SIGTERM,
// then drains in-flight requests and exits 0.
#include <csignal>
#include <cstring>
#include <fstream>
#include <iostream>
#include <thread>

#include "common/cli.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void on_signal(int) { g_stop = 1; }

constexpr const char kUsage[] =
    "Usage: nbxd --socket PATH [flags]\n"
    "  --socket PATH        unix socket to listen on (required)\n"
    "  --workers N          compute worker threads, 1-16; each job also\n"
    "                       shards over a pool this wide (default 2)\n"
    "  --queue N            max queued jobs before shedding (default 16)\n"
    "  --min-shard N        min sweep items per shard (default 32)\n"
    "  --cache N            max cached responses, FIFO-evicted "
    "(default 4096)\n"
    "  --retry-ms N         retry-after hint in shed responses "
    "(default 50)\n"
    "  --registry-out PATH  write Prometheus metrics text on exit\n"
    "  --quiet              no startup/shutdown chatter on stderr\n"
    "  --help               print this message\n";

}  // namespace

int main(int argc, char** argv) {
  const nbx::CliArgs args(argc, argv, {"quiet", "help"});
  if (args.has("help")) {
    std::cout << kUsage;
    return 0;
  }
  const std::string bad_flags = args.unknown_flag_message(
      {"socket", "workers", "queue", "min-shard", "cache", "retry-ms",
       "registry-out", "quiet", "help"});
  if (!bad_flags.empty()) {
    std::cerr << "nbxd: " << bad_flags << "\n" << kUsage;
    return 2;
  }
  const std::string bad_value = nbx::serve::service_flag_message(args);
  if (!bad_value.empty()) {
    std::cerr << "nbxd: " << bad_value << "\n" << kUsage;
    return 2;
  }
  nbx::serve::ServerConfig cfg;
  cfg.socket_path = args.get("socket");
  if (cfg.socket_path.empty()) {
    std::cerr << "nbxd: --socket PATH is required\n" << kUsage;
    return 2;
  }
  cfg.service.workers =
      static_cast<unsigned>(args.get_int("workers", 2));
  cfg.service.max_queue =
      static_cast<std::size_t>(args.get_int("queue", 16));
  cfg.service.min_items_per_shard =
      static_cast<std::size_t>(args.get_int("min-shard", 32));
  cfg.service.max_cache_entries =
      static_cast<std::size_t>(args.get_int("cache", 4096));
  cfg.service.retry_after_ms =
      static_cast<std::uint32_t>(args.get_int("retry-ms", 50));
  const bool quiet = args.has("quiet");
  const std::string registry_out = args.get("registry-out");

  // The registry must be installed before the service resolves its
  // metric handles (SweepService binds them at construction).
  nbx::obs::MetricsRegistry registry;
  const nbx::obs::ScopedMetricsRegistry scoped(&registry);

  nbx::serve::Server server(cfg);
  std::string error;
  if (!server.start(&error)) {
    std::cerr << "nbxd: " << error << "\n";
    return 1;
  }
  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  if (!quiet) {
    std::cerr << "nbxd: listening on " << cfg.socket_path << " ("
              << cfg.service.workers << " workers, queue "
              << cfg.service.max_queue << ", cache "
              << cfg.service.max_cache_entries << ")\n";
  }
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  if (!registry_out.empty()) {
    std::ofstream os(registry_out);
    if (os) {
      registry.write_prometheus(os);
    } else {
      std::cerr << "nbxd: cannot write " << registry_out << "\n";
    }
  }
  if (!quiet) {
    const nbx::serve::ServiceStats s = server.service().stats();
    std::cerr << "nbxd: drained (" << s.requests << " requests, " << s.hits
              << " hits, " << s.jobs_computed << " computed, " << s.shed
              << " shed)\n";
  }
  return 0;
}
