// metrics_test.cpp — the process-wide MetricsRegistry: exact concurrent
// counting, deterministic exposition, quantile math, the nullable-sink
// hook, and the JSONL snapshot streamer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "check/json_value.hpp"
#include "common/thread_pool.hpp"
#include "obs/metrics.hpp"

namespace nbx::obs {
namespace {

TEST(Metrics, CounterAddsAreExactSerially) {
  MetricsRegistry reg;
  MetricCounter& c = reg.counter("serial_total");
  EXPECT_EQ(c.value(), 0u);
  c.increment();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(Metrics, CounterIncrementsAreExactUnderThreadPool) {
  MetricsRegistry reg;
  MetricCounter& c = reg.counter("pool_total");
  MetricGauge& g = reg.gauge("pool_gauge");
  MetricHistogram& h = reg.histogram("pool_hist");
  constexpr std::size_t kIters = 100000;
  ThreadPool pool(8);
  pool.parallel_for(kIters, 0, [&](std::size_t i) {
    c.increment();
    g.add(1.0);
    h.observe(static_cast<double>(i % 1024));
  });
  // Sharded relaxed adds must still merge to the exact total — the
  // no-lost-updates contract.
  EXPECT_EQ(c.value(), kIters);
  EXPECT_EQ(g.value(), static_cast<double>(kIters));
  EXPECT_EQ(h.data().count, kIters);
}

TEST(Metrics, FindOrCreateReturnsStableHandles) {
  MetricsRegistry reg;
  MetricCounter& a = reg.counter("trials_total", {{"backend", "wide"}});
  // Same (kind, name, labels) in any label order: same handle.
  MetricCounter& b = reg.counter("trials_total", {{"backend", "wide"}});
  EXPECT_EQ(&a, &b);
  // Different labels: different series.
  MetricCounter& other =
      reg.counter("trials_total", {{"backend", "scalar"}});
  EXPECT_NE(&a, &other);
  a.add(3);
  b.add(4);
  other.add(1);
  EXPECT_EQ(a.value(), 7u);
  EXPECT_EQ(other.value(), 1u);
  // Same name, different kind: distinct metric objects, no crash.
  MetricGauge& gauge = reg.gauge("trials_total");
  gauge.set(9.0);
  EXPECT_EQ(a.value(), 7u);
}

TEST(Metrics, LabelsCanonicalizeToKeySortedOrder) {
  MetricsRegistry reg;
  MetricCounter& a = reg.counter(
      "multi_total", {{"zeta", "1"}, {"alpha", "2"}, {"mid", "3"}});
  MetricCounter& b = reg.counter(
      "multi_total", {{"mid", "3"}, {"alpha", "2"}, {"zeta", "1"}});
  EXPECT_EQ(&a, &b) << "label order must not split a series";
  a.increment();

  const std::vector<MetricSnapshot> snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 1u);
  ASSERT_EQ(snaps[0].labels.size(), 3u);
  EXPECT_EQ(snaps[0].labels[0].key, "alpha");
  EXPECT_EQ(snaps[0].labels[1].key, "mid");
  EXPECT_EQ(snaps[0].labels[2].key, "zeta");
}

TEST(Metrics, NamesAreSanitizedToPrometheusVocabulary) {
  MetricsRegistry reg;
  reg.counter("bad name-with.dots").increment();
  reg.counter("9starts_with_digit").increment();
  const std::vector<MetricSnapshot> snaps = reg.snapshot();
  ASSERT_EQ(snaps.size(), 2u);
  // snapshot() sorts by name: '_9...' precedes 'bad_...'.
  EXPECT_EQ(snaps[0].name, "_9starts_with_digit");
  EXPECT_EQ(snaps[1].name, "bad_name_with_dots");
}

TEST(Metrics, SnapshotOrderIsDeterministic) {
  // Two registries fed the same metrics in different creation order
  // must render byte-identical exposition text.
  const auto feed = [](MetricsRegistry& reg, bool reversed) {
    const std::vector<std::pair<std::string, std::string>> series = {
        {"engine_trials_total", "scalar"},
        {"engine_trials_total", "wide"},
        {"alpha_total", "wide"},
    };
    if (!reversed) {
      for (const auto& [name, backend] : series) {
        reg.counter(name, {{"backend", backend}}).add(7);
      }
    } else {
      for (auto it = series.rbegin(); it != series.rend(); ++it) {
        reg.counter(it->first, {{"backend", it->second}}).add(7);
      }
    }
    reg.gauge("depth").set(3.5);
  };
  MetricsRegistry forward;
  MetricsRegistry backward;
  feed(forward, false);
  feed(backward, true);

  std::ostringstream a;
  std::ostringstream b;
  forward.write_prometheus(a);
  backward.write_prometheus(b);
  EXPECT_EQ(a.str(), b.str());
  EXPECT_EQ(forward.json(), backward.json());
}

TEST(Metrics, PrometheusExpositionGolden) {
  MetricsRegistry reg;
  reg.counter("engine_trials_total", {{"backend", "wide"}, {"lanes", "64"}})
      .add(128);
  reg.gauge("queue_depth").set(4.0);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE nbx_engine_trials_total counter\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find(
          "nbx_engine_trials_total{backend=\"wide\",lanes=\"64\"} 128\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE nbx_queue_depth gauge\n"), std::string::npos);
  EXPECT_NE(text.find("nbx_queue_depth 4\n"), std::string::npos) << text;
}

TEST(Metrics, PrometheusHistogramHasCumulativeBuckets) {
  MetricsRegistry reg;
  MetricHistogram& h = reg.histogram("latency_microseconds");
  h.observe(1.0);   // bucket 0: [0, 2)
  h.observe(3.0);   // bucket 1: [2, 4)
  h.observe(5.0);   // bucket 2: [4, 8)
  h.observe(5.0);

  std::ostringstream os;
  reg.write_prometheus(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# TYPE nbx_latency_microseconds histogram\n"),
            std::string::npos);
  // Cumulative le buckets: le="2" sees 1, le="4" sees 2, le="8" all 4.
  EXPECT_NE(text.find("nbx_latency_microseconds_bucket{le=\"2\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nbx_latency_microseconds_bucket{le=\"4\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nbx_latency_microseconds_bucket{le=\"8\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nbx_latency_microseconds_bucket{le=\"+Inf\"} 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nbx_latency_microseconds_sum 14\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("nbx_latency_microseconds_count 4\n"),
            std::string::npos)
      << text;
}

TEST(Metrics, HistogramBucketOf) {
  EXPECT_EQ(MetricHistogram::bucket_of(0.0), 0u);
  EXPECT_EQ(MetricHistogram::bucket_of(1.5), 0u);
  EXPECT_EQ(MetricHistogram::bucket_of(-3.0), 0u);
  EXPECT_EQ(MetricHistogram::bucket_of(2.0), 1u);
  EXPECT_EQ(MetricHistogram::bucket_of(3.99), 1u);
  EXPECT_EQ(MetricHistogram::bucket_of(4.0), 2u);
  EXPECT_EQ(MetricHistogram::bucket_of(1024.0), 10u);
  // Huge values clamp into the last bucket instead of overflowing.
  EXPECT_EQ(MetricHistogram::bucket_of(1e300),
            MetricHistogram::kBuckets - 1);
}

TEST(Metrics, HistogramTracksSumMinMax) {
  MetricsRegistry reg;
  MetricHistogram& h = reg.histogram("h");
  EXPECT_EQ(h.data().count, 0u);
  EXPECT_EQ(h.data().quantile(0.5), 0.0) << "empty histogram -> 0";
  h.observe(10.0);
  h.observe(2.0);
  h.observe(100.0);
  const MetricHistogram::Data d = h.data();
  EXPECT_EQ(d.count, 3u);
  EXPECT_DOUBLE_EQ(d.sum, 112.0);
  EXPECT_DOUBLE_EQ(d.min, 2.0);
  EXPECT_DOUBLE_EQ(d.max, 100.0);
}

TEST(Metrics, HistogramQuantilesAreMonotonicAndClamped) {
  MetricsRegistry reg;
  MetricHistogram& h = reg.histogram("h");
  for (int i = 1; i <= 1000; ++i) {
    h.observe(static_cast<double>(i));
  }
  const MetricHistogram::Data d = h.data();
  const double p50 = d.quantile(0.50);
  const double p95 = d.quantile(0.95);
  const double p99 = d.quantile(0.99);
  // Log2 interpolation is approximate; demand order + sane ballpark.
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_GE(p50, d.min);
  EXPECT_LE(p99, d.max);
  EXPECT_GT(p50, 250.0);
  EXPECT_LT(p50, 1000.0);
  EXPECT_GT(p99, 500.0);

  // A single observation: min == max clamps every quantile onto it.
  MetricHistogram& one = reg.histogram("one");
  one.observe(5000.0);
  EXPECT_DOUBLE_EQ(one.data().quantile(0.50), 5000.0);
  EXPECT_DOUBLE_EQ(one.data().quantile(0.99), 5000.0);
}

TEST(Metrics, JsonIsOneParsableLine) {
  MetricsRegistry reg;
  reg.counter("c_total", {{"backend", "wide"}}).add(5);
  reg.gauge("g").set(1.25);
  reg.histogram("h").observe(16.0);
  const std::string json = reg.json();
  EXPECT_EQ(json.find('\n'), std::string::npos);

  std::string error;
  const std::optional<check::JsonValue> doc =
      check::JsonValue::parse(json, &error);
  ASSERT_TRUE(doc.has_value()) << error << " in " << json;
  const check::JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  const check::JsonValue* c = counters->find("c_total{backend=\"wide\"}");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->as_u64(), 5u);
  const check::JsonValue* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  const check::JsonValue* h = hists->find("h");
  ASSERT_NE(h, nullptr);
  ASSERT_NE(h->find("p99"), nullptr);
  EXPECT_EQ(h->find("count")->as_u64(), 1u);
}

TEST(Metrics, ProcessHookDefaultsToNullAndScopes) {
  ASSERT_EQ(metrics(), nullptr) << "registry must be off by default";
  MetricsRegistry reg;
  {
    ScopedMetricsRegistry attach(&reg);
    EXPECT_EQ(metrics(), &reg);
    {
      MetricsRegistry inner;
      ScopedMetricsRegistry attach_inner(&inner);
      EXPECT_EQ(metrics(), &inner);
    }
    EXPECT_EQ(metrics(), &reg);
  }
  EXPECT_EQ(metrics(), nullptr);
}

TEST(Metrics, SnapshotStreamerWritesValidJsonlAndFinalRecord) {
  MetricsRegistry reg;
  reg.counter("soak_total").add(11);
  std::ostringstream os;
  {
    // Long interval: only the final on-stop record fires.
    SnapshotStreamer streamer(reg, os, 3600.0);
    streamer.stop();
    streamer.stop();  // idempotent
    EXPECT_EQ(streamer.snapshots_written(), 1u);
  }
  std::istringstream lines(os.str());
  std::string line;
  std::size_t records = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) {
      continue;
    }
    ++records;
    std::string error;
    const std::optional<check::JsonValue> doc =
        check::JsonValue::parse(line, &error);
    ASSERT_TRUE(doc.has_value()) << error << " in " << line;
    ASSERT_NE(doc->find("elapsed_seconds"), nullptr);
    const check::JsonValue* m = doc->find("metrics");
    ASSERT_NE(m, nullptr);
    ASSERT_NE(m->find("counters"), nullptr);
    EXPECT_EQ(m->find("counters")->find("soak_total")->as_u64(), 11u);
  }
  EXPECT_EQ(records, 1u);
}

}  // namespace
}  // namespace nbx::obs
