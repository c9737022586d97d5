// serve_test.cpp — end-to-end integration of the nbxd serving stack:
// a real Server on a real unix socket, concurrent ServeClients, and the
// service's cache/coalescing/shedding counters.
//
// The contract under test (docs/SERVING.md):
//   * responses for the same spec are byte-identical across clients and
//     across time, and equal to the canonical rendering of a direct
//     scalar TrialEngine run;
//   * each unique fingerprint is computed exactly once — duplicates are
//     cache hits or coalesced followers, never second computations;
//   * a full queue sheds with a structured retry-after response instead
//     of blocking or crashing, and a spec over the sweep-item budget
//     gets a structured error instead of a compute;
//   * every response kind keeps its pinned key sequence (WireSchema);
//   * malformed frames (garbage payloads, zero-length and oversized
//     headers) get structured errors — the connection may close, the
//     daemon never dies;
//   * stop() drains: every request accepted before shutdown receives its
//     complete response, and the socket path is unlinked for the next
//     bind (the soak script's restart-under-load loop leans on this);
//     a peer stalled mid-frame holds stop() for a bounded grace period,
//     not until it disconnects.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alu/alu_factory.hpp"
#include "check/json_value.hpp"
#include "common/cli.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/trial_engine.hpp"

namespace nbx::serve {
namespace {

std::string temp_socket_path(const char* tag) {
  // AF_UNIX paths are length-capped (~108 bytes); /tmp + pid + tag stays
  // far below it and unique per test process.
  char buf[96];
  std::snprintf(buf, sizeof(buf), "/tmp/nbx_%s_%d.sock", tag,
                static_cast<int>(::getpid()));
  return std::string(buf);
}

SweepRequest small_request(std::uint64_t seed, int trials = 2) {
  SweepRequest req;
  req.alu = "aluss";
  req.spec.percents = {2.0};
  req.spec.trials_per_workload = trials;
  req.spec.seed = seed;
  return req;
}

std::string status_of(const std::string& payload) {
  const auto doc = check::JsonValue::parse(payload);
  if (!doc.has_value() || !doc->is_object()) {
    return "";
  }
  const check::JsonValue* status = doc->find("status");
  return status != nullptr && status->is_string() ? status->as_string()
                                                  : "";
}

TEST(ServeSmoke, ConcurrentClientsAreByteIdenticalAndComputeOnce) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket_path("conc");
  cfg.service.workers = 2;
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Four distinct specs, each requested by two clients concurrently.
  constexpr int kDistinct = 4;
  constexpr int kClients = 2 * kDistinct;
  std::vector<std::string> payloads;
  for (int i = 0; i < kDistinct; ++i) {
    payloads.push_back(
        render_sweep_request(small_request(9000 + i)));
  }
  std::vector<std::string> responses(kClients);
  // char, not bool: vector<bool> packs the flags into shared words, and
  // eight client threads writing neighbouring bits is a data race.
  std::vector<char> transported(kClients, 0);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client;
      std::string err;
      if (!client.connect(server.socket_path(), &err)) {
        return;
      }
      transported[c] = client.request(payloads[c % kDistinct],
                                      responses[c], &err);
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_TRUE(transported[c]) << "client " << c << " transport failed";
    EXPECT_EQ(status_of(responses[c]), "ok") << responses[c];
    EXPECT_EQ(responses[c], responses[c % kDistinct])
        << "same-spec responses diverged for client " << c;
  }

  // Exactly one computation per unique fingerprint; every duplicate was
  // a hit or a coalesced follower.
  const ServiceStats stats = server.service().stats();
  EXPECT_EQ(stats.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(stats.jobs_computed, static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(kDistinct));
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<std::uint64_t>(kClients - kDistinct));
  EXPECT_EQ(stats.shed, 0u);
  EXPECT_EQ(stats.errors, 0u);

  // The served bytes equal the canonical rendering of a direct scalar
  // engine run — the daemon is the engine.
  const SweepRequest req = small_request(9000);
  const auto alu = make_alu(req.alu);
  ASSERT_NE(alu, nullptr);
  TrialEngine engine{ParallelConfig{}};
  const SweepAnatomy direct =
      engine.sweep_anatomy(*alu, paper_streams(req.spec.seed), req.spec);
  SweepRecord record;
  record.alu = req.alu;
  record.points = direct.points;
  record.point_metrics = direct.metrics;
  std::string expected;
  render_ok_response(expected, request_fingerprint(req), record);
  EXPECT_EQ(responses[0], expected);

  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(ServeSmoke, DuplicatesInFlightCoalesceToOneComputation) {
  // One worker and a heavy job at the head of the queue: the duplicate
  // submissions below must arrive while their leader is still queued,
  // so they coalesce onto its Flight instead of recomputing.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 16;
  SweepService service(cfg);

  const std::string blocker =
      render_sweep_request(small_request(1, /*trials=*/800));
  const std::string dup =
      render_sweep_request(small_request(2, /*trials=*/400));

  std::atomic<int> done{0};
  std::thread blocker_thread([&] {
    std::string out;
    service.handle(blocker, out);
    done.fetch_add(1);
  });
  while (service.stats().misses < 1) {
    std::this_thread::yield();
  }
  std::thread leader_thread([&] {
    std::string out;
    service.handle(dup, out);
    done.fetch_add(1);
  });
  while (service.stats().misses < 2) {
    std::this_thread::yield();
  }
  // The leader is queued behind the running blocker; every duplicate
  // fired now joins its flight.
  constexpr int kFollowers = 3;
  std::vector<std::string> follower_out(kFollowers);
  std::vector<std::thread> followers;
  for (int i = 0; i < kFollowers; ++i) {
    followers.emplace_back(
        [&, i] { service.handle(dup, follower_out[i]); });
  }
  for (std::thread& t : followers) {
    t.join();
  }
  blocker_thread.join();
  leader_thread.join();

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.jobs_computed, 2u)
      << "a duplicate was recomputed instead of coalesced";
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits + stats.coalesced,
            static_cast<std::uint64_t>(kFollowers));
  for (int i = 1; i < kFollowers; ++i) {
    EXPECT_EQ(follower_out[i], follower_out[0]);
  }
  EXPECT_EQ(status_of(follower_out[0]), "ok");
}

TEST(ServeSmoke, FullQueueShedsWithRetryAfter) {
  // max_queue = 0 makes every would-be computation shed deterministically.
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.max_queue = 0;
  cfg.retry_after_ms = 125;
  SweepService service(cfg);
  std::string out;
  const SweepService::Status st = service.serve(small_request(7), out);
  EXPECT_EQ(st, SweepService::Status::kShed);
  EXPECT_EQ(status_of(out), "shed");
  EXPECT_NE(out.find("\"retry_after_ms\":125"), std::string::npos) << out;
  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.shed, 1u);
  EXPECT_EQ(stats.jobs_computed, 0u);
}

TEST(ServeSmoke, PingStatsAndMalformedFramesOverTheSocket) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket_path("mal");
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  ServeClient client;
  ASSERT_TRUE(client.connect(server.socket_path(), &error)) << error;
  std::string response;

  ASSERT_TRUE(client.request(render_ping_request(), response, &error))
      << error;
  EXPECT_EQ(status_of(response), "ok");
  EXPECT_NE(response.find("\"kind\":\"pong\""), std::string::npos);

  ASSERT_TRUE(client.request(render_stats_request(), response, &error))
      << error;
  EXPECT_EQ(status_of(response), "ok");
  EXPECT_NE(response.find("\"requests\":"), std::string::npos);

  // Garbage payload in a well-formed frame: structured error, and the
  // connection keeps serving.
  ASSERT_TRUE(client.request("\x01\xff not json at all", response, &error))
      << error;
  EXPECT_EQ(status_of(response), "error");
  ASSERT_TRUE(client.request(render_ping_request(), response, &error))
      << error;
  EXPECT_EQ(status_of(response), "ok");

  // Unknown request kind and a sweep with an out-of-range knob: errors.
  ASSERT_TRUE(client.request("{\"kind\":\"evaluate\"}", response, &error));
  EXPECT_EQ(status_of(response), "error");
  ASSERT_TRUE(client.request(
      "{\"kind\":\"sweep\",\"alu\":\"aluss\",\"percents\":[2.0],"
      "\"trials\":0,\"seed\":1}",
      response, &error));
  EXPECT_EQ(status_of(response), "error");

  // A zero-length frame is a protocol error: the server answers with a
  // structured error and closes the connection — the daemon survives
  // and accepts the next client.
  client.close();
  ASSERT_TRUE(client.connect(server.socket_path(), &error)) << error;
  ASSERT_TRUE(client.request("", response, &error)) << error;
  EXPECT_EQ(status_of(response), "error");
  ServeClient again;
  ASSERT_TRUE(again.connect(server.socket_path(), &error)) << error;
  ASSERT_TRUE(again.request(render_ping_request(), response, &error))
      << error;
  EXPECT_EQ(status_of(response), "ok");

  server.stop();
}

TEST(ServeSmoke, StopDrainsInFlightRequestsAndFreesTheSocketPath) {
  const std::string path = temp_socket_path("drain");
  auto server = std::make_unique<Server>([&] {
    ServerConfig cfg;
    cfg.socket_path = path;
    cfg.service.workers = 2;
    return cfg;
  }());
  std::string error;
  ASSERT_TRUE(server->start(&error)) << error;

  // A client hammers sweeps until the server goes away. Every response
  // it does receive must be complete and well-formed — a drain that cut
  // a frame in half would surface as an unparsable response here.
  std::atomic<bool> mid_frame_corruption{false};
  std::atomic<int> completed{0};
  std::thread hammer([&] {
    ServeClient client;
    std::string err;
    if (!client.connect(path, &err)) {
      return;
    }
    for (std::uint64_t seed = 0;; ++seed) {
      std::string out;
      if (!client.request(render_sweep_request(small_request(seed)), out,
                          &err)) {
        return;  // transport closed by shutdown: expected
      }
      if (status_of(out) != "ok") {
        mid_frame_corruption.store(true);
      }
      completed.fetch_add(1);
    }
  });
  while (completed.load() < 3) {
    std::this_thread::yield();
  }
  server->stop();
  hammer.join();
  EXPECT_FALSE(mid_frame_corruption.load())
      << "a drained response arrived incomplete or malformed";
  EXPECT_GE(completed.load(), 3);

  // The path is free again: a second server binds and serves, and the
  // first server's cache obviously does not survive the restart — but
  // the recomputed bytes are identical (content addressing).
  server = std::make_unique<Server>([&] {
    ServerConfig cfg;
    cfg.socket_path = path;
    return cfg;
  }());
  ASSERT_TRUE(server->start(&error)) << error;
  ServeClient client;
  ASSERT_TRUE(client.connect(path, &error)) << error;
  std::string first;
  std::string second;
  ASSERT_TRUE(client.request(render_sweep_request(small_request(0)), first,
                             &error))
      << error;
  ASSERT_TRUE(client.request(render_sweep_request(small_request(0)),
                             second, &error))
      << error;
  EXPECT_EQ(status_of(first), "ok");
  EXPECT_EQ(first, second);
  server->stop();
}

TEST(ServeSmoke, CacheSurvivesReconnectsWithinOneDaemon) {
  ServerConfig cfg;
  cfg.socket_path = temp_socket_path("cache");
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const std::string payload = render_sweep_request(small_request(42));
  std::string first;
  {
    ServeClient client;
    ASSERT_TRUE(client.connect(server.socket_path(), &error)) << error;
    ASSERT_TRUE(client.request(payload, first, &error)) << error;
  }
  std::string second;
  {
    ServeClient client;
    ASSERT_TRUE(client.connect(server.socket_path(), &error)) << error;
    ASSERT_TRUE(client.request(payload, second, &error)) << error;
  }
  EXPECT_EQ(first, second);
  const ServiceStats stats = server.service().stats();
  EXPECT_EQ(stats.jobs_computed, 1u);
  EXPECT_EQ(stats.hits, 1u);
  server.stop();
}

std::string flag_message_for(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "nbxd");
  return service_flag_message(
      CliArgs(static_cast<int>(argv.size()), argv.data()));
}

TEST(ServiceFlags, CountsOutOfBoundsNameTheFlagAndItsValue) {
  // A count cast straight to its unsigned field turns -1 into billions:
  // --workers -1 would start 2^32 - 1 threads, --queue/--cache -1 would
  // never shed or evict. Every one is refused before any cast.
  const std::vector<std::pair<const char*, std::vector<const char*>>> bad =
      {{"workers", {"-1", "0", "17", "4294967295", "two", "1.5"}},
       {"queue", {"-1", "x"}},
       {"min-shard", {"-1"}},
       {"cache", {"-1", "-4096"}},
       {"retry-ms", {"-1", "4294967296"}}};
  for (const auto& [flag, values] : bad) {
    for (const char* v : values) {
      const std::string f = std::string("--") + flag;
      const std::string msg = flag_message_for({f.c_str(), v});
      EXPECT_NE(msg.find(f), std::string::npos) << flag << " " << v;
      EXPECT_NE(msg.find(std::string("'") + v + "'"), std::string::npos)
          << msg;
    }
  }
  EXPECT_EQ(flag_message_for({}), "");
  EXPECT_EQ(flag_message_for({"--workers", "1", "--queue", "0", "--cache",
                              "0", "--min-shard", "0", "--retry-ms", "0"}),
            "");
  EXPECT_EQ(flag_message_for({"--workers", "16", "--queue", "1000000",
                              "--retry-ms", "4294967295"}),
            "");
  // The first offender is the one named.
  const std::string both = flag_message_for({"--workers", "99", "--queue",
                                             "-1"});
  EXPECT_NE(both.find("--workers"), std::string::npos) << both;
  EXPECT_EQ(both.find("--queue"), std::string::npos) << both;
}

TEST(ServeAdmission, OverBudgetSpecIsRefusedAndTheServiceStillAnswers) {
  // The widest spec the wire accepts: 64 percents x 10^6 trials, 1.28 x
  // 10^8 sweep items. Its per-item counters alone would need ~50 GB, so
  // admission must refuse it before any compute is queued.
  SweepRequest huge = small_request(3);
  huge.spec.percents.clear();
  for (int i = 0; i < 64; ++i) {
    huge.spec.percents.push_back(0.25 * i);
  }
  huge.spec.trials_per_workload = 1'000'000;
  SweepService service(ServiceConfig{});
  std::string out;
  const auto start = std::chrono::steady_clock::now();
  service.handle(render_sweep_request(huge), out);
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_EQ(status_of(out), "error") << out;
  EXPECT_NE(out.find("admission budget"), std::string::npos) << out;
  EXPECT_LT(seconds, 0.5);
  EXPECT_EQ(service.stats().jobs_computed, 0u);
  EXPECT_EQ(service.stats().errors, 1u);

  out.clear();
  service.handle(render_sweep_request(small_request(3)), out);
  EXPECT_EQ(status_of(out), "ok") << out;
  EXPECT_EQ(service.stats().jobs_computed, 1u);
}

// Every object key of a response, in document order; nested keys as
// "parent.key", array elements as "parent[].key".
void collect_keys(const check::JsonValue& v, const std::string& prefix,
                  std::vector<std::string>& keys) {
  if (v.is_object()) {
    for (const auto& [key, member] : v.members()) {
      keys.push_back(prefix + key);
      collect_keys(member, prefix + key + ".", keys);
    }
  } else if (v.is_array()) {
    const std::string element =
        prefix.substr(0, prefix.size() - 1) + "[].";
    for (const check::JsonValue& item : v.items()) {
      collect_keys(item, element, keys);
    }
  }
}

std::string key_sequence(const std::string& response) {
  const auto doc = check::JsonValue::parse(response);
  if (!doc.has_value()) {
    return "<not JSON: " + response + ">";
  }
  std::vector<std::string> keys;
  collect_keys(*doc, "", keys);
  std::string joined;
  for (const std::string& k : keys) {
    joined += k + "\n";
  }
  return joined;
}

// Brittle on purpose. If a response's keys change, clients that parse
// the old shape break: bump kWireVersion in src/serve/wire.hpp (which
// also moves every request fingerprint, so no cached body outlives the
// schema), then re-pin the sequences below.
constexpr const char* kOkKeys =
    "nbxd\n"
    "status\n"
    "fingerprint\n"
    "alu\n"
    "points\n"
    "points[].fault_percent\n"
    "points[].mean_percent_correct\n"
    "points[].stddev\n"
    "points[].ci95\n"
    "points[].samples\n"
    "anatomy\n"
    "anatomy[].injection\n"
    "anatomy[].injection.masks_generated\n"
    "anatomy[].injection.faults_injected\n"
    "anatomy[].code\n"
    "anatomy[].code.hamming\n"
    "anatomy[].code.hamming.reads\n"
    "anatomy[].code.hamming.clean\n"
    "anatomy[].code.hamming.corrected\n"
    "anatomy[].code.hamming.miscorrected\n"
    "anatomy[].code.hamming.detected_uncorrectable\n"
    "anatomy[].code.hamming.false_positive\n"
    "anatomy[].code.hamming.undetected\n"
    "anatomy[].code.hsiao\n"
    "anatomy[].code.hsiao.reads\n"
    "anatomy[].code.hsiao.clean\n"
    "anatomy[].code.hsiao.corrected\n"
    "anatomy[].code.hsiao.miscorrected\n"
    "anatomy[].code.hsiao.detected_uncorrectable\n"
    "anatomy[].code.hsiao.false_positive\n"
    "anatomy[].code.hsiao.undetected\n"
    "anatomy[].code.rs\n"
    "anatomy[].code.rs.reads\n"
    "anatomy[].code.rs.clean\n"
    "anatomy[].code.rs.corrected\n"
    "anatomy[].code.rs.miscorrected\n"
    "anatomy[].code.rs.detected_uncorrectable\n"
    "anatomy[].code.rs.false_positive\n"
    "anatomy[].code.rs.undetected\n"
    "anatomy[].code.tmr\n"
    "anatomy[].code.tmr.reads\n"
    "anatomy[].code.tmr.clean\n"
    "anatomy[].code.tmr.corrected\n"
    "anatomy[].code.tmr.miscorrected\n"
    "anatomy[].code.tmr.detected_uncorrectable\n"
    "anatomy[].code.tmr.false_positive\n"
    "anatomy[].code.tmr.undetected\n"
    "anatomy[].code.parity\n"
    "anatomy[].code.parity.reads\n"
    "anatomy[].code.parity.clean\n"
    "anatomy[].code.parity.corrected\n"
    "anatomy[].code.parity.miscorrected\n"
    "anatomy[].code.parity.detected_uncorrectable\n"
    "anatomy[].code.parity.false_positive\n"
    "anatomy[].code.parity.undetected\n"
    "anatomy[].module\n"
    "anatomy[].module.votes\n"
    "anatomy[].module.copies_outvoted\n"
    "anatomy[].module.voter_self_faults\n"
    "anatomy[].module.storage_faults\n"
    "anatomy[].e2e\n"
    "anatomy[].e2e.instructions\n"
    "anatomy[].e2e.correct\n"
    "anatomy[].e2e.silent_corruptions\n"
    "anatomy[].e2e.caught_errors\n"
    "anatomy[].e2e.false_alarms\n"
    "anatomy[].scenario\n"
    "anatomy[].scenario.scheduled_trials\n"
    "anatomy[].scenario.wear_adjusted_trials\n"
    "anatomy[].scenario.burst_strikes\n";
constexpr const char* kErrorKeys = "nbxd\nstatus\nerror\n";
constexpr const char* kShedKeys = "nbxd\nstatus\nretry_after_ms\n";
constexpr const char* kPongKeys = "nbxd\nstatus\nkind\n";
constexpr const char* kStatsKeys =
    "nbxd\n"
    "status\n"
    "kind\n"
    "requests\n"
    "hits\n"
    "misses\n"
    "coalesced\n"
    "shed\n"
    "errors\n"
    "jobs_computed\n"
    "shards_executed\n"
    "pings\n"
    "stats_requests\n"
    "queue_depth\n"
    "cache_entries\n";

TEST(WireSchema, ResponseKeySequencesArePinned) {
  const char* const bump =
      "the nbxd response schema changed: bump kWireVersion in "
      "src/serve/wire.hpp, then re-pin these key sequences";
  EXPECT_EQ(kWireVersion, 1u) << "re-pin the key sequences below for the "
                                 "new wire version";
  SweepService service(ServiceConfig{});
  std::string out;
  service.handle(render_sweep_request(small_request(11, 1)), out);
  EXPECT_EQ(key_sequence(out), kOkKeys) << bump << "\nok response: " << out;

  out.clear();
  service.handle("not json", out);
  EXPECT_EQ(key_sequence(out), kErrorKeys)
      << bump << "\nerror response: " << out;

  out.clear();
  service.handle(render_ping_request(), out);
  EXPECT_EQ(key_sequence(out), kPongKeys)
      << bump << "\npong response: " << out;

  out.clear();
  service.handle(render_stats_request(), out);
  EXPECT_EQ(key_sequence(out), kStatsKeys)
      << bump << "\nstats response: " << out;

  ServiceConfig shedding;
  shedding.max_queue = 0;
  SweepService full(shedding);
  out.clear();
  full.handle(render_sweep_request(small_request(12)), out);
  EXPECT_EQ(key_sequence(out), kShedKeys)
      << bump << "\nshed response: " << out;
}

// Lines of /proc/self/maps: one per mapping this process holds. A
// joinable-but-finished thread keeps its stack and guard page mapped.
std::size_t mapping_count() {
  std::ifstream maps("/proc/self/maps");
  std::size_t lines = 0;
  for (std::string line; std::getline(maps, line);) {
    ++lines;
  }
  return lines;
}

TEST(ServeLifetime, FinishedConnectionsReleaseTheirThreads) {
  // A long-running daemon sees an unbounded number of short connections
  // (nbxq opens one per command). Each finished connection's thread must
  // be joined while the server runs, not kept until stop(): otherwise
  // every one of them holds its stack mapping, and the process runs out
  // of mappings (vm.max_map_count) after some tens of thousands.
  ServerConfig cfg;
  cfg.socket_path = temp_socket_path("reap");
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const auto ping_once = [&] {
    ServeClient client;
    std::string response;
    return client.connect(server.socket_path(), &error) &&
           client.request(render_ping_request(), response, &error) &&
           status_of(response) == "ok";
  };
  // Warm-up: the first connections fault in the allocator arenas and the
  // thread-stack cache every later connection reuses.
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ping_once()) << error;
  }
  const std::size_t before = mapping_count();
  constexpr int kCycles = 2000;
  for (int i = 0; i < kCycles; ++i) {
    ASSERT_TRUE(ping_once()) << "cycle " << i << ": " << error;
  }
  const std::size_t after = mapping_count();
  // Without reaping the growth is two mappings per connection (~4,000).
  EXPECT_LT(after, before + 200)
      << kCycles << " sequential connections grew the mapping count from "
      << before << " to " << after
      << " — finished connection threads are not being joined";
  server.stop();
}

TEST(ServeLifetime, StopGivesUpOnAPeerStalledMidFrame) {
  // A peer that sends half a frame header and then neither sends more
  // nor closes must not hold stop() open: once stop is raised, a
  // partial frame that makes no progress for the server's grace period
  // (one second) is abandoned.
  ServerConfig cfg;
  cfg.socket_path = temp_socket_path("stall");
  Server server(cfg);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, cfg.socket_path.c_str(),
              cfg.socket_path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  const char half_header[kFrameHeaderBytes / 2] = {0x10, 0x00};
  ASSERT_EQ(::send(fd, half_header, sizeof(half_header), MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof(half_header)));
  // Let the connection thread take the two bytes before stop is raised.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  std::promise<void> stopped;
  std::future<void> done = stopped.get_future();
  std::thread stopper([&] {
    server.stop();
    stopped.set_value();
  });
  // Grace period plus a margin. Past the deadline, closing the socket
  // releases a server that would wait for the peer, so a failing run
  // still ends.
  const bool in_time =
      done.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  ::close(fd);
  stopper.join();
  EXPECT_TRUE(in_time) << "stop() waited for a peer stalled mid-frame";
  EXPECT_FALSE(server.running());
}

}  // namespace
}  // namespace nbx::serve
