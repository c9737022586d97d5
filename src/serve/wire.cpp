#include "serve/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>

#include "check/json_value.hpp"
#include "fault/sweep.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "sim/manifest.hpp"

namespace nbx::serve {

namespace {

using check::JsonValue;

// --------------------------------------------------------------- names

const char* policy_name(FaultCountPolicy p) {
  switch (p) {
    case FaultCountPolicy::kRoundNearest:
      return "round";
    case FaultCountPolicy::kFloor:
      return "floor";
    case FaultCountPolicy::kBernoulli:
      return "bernoulli";
    case FaultCountPolicy::kBurst:
      return "burst";
  }
  return "round";
}

const char* scope_name(InjectionScope s) {
  return s == InjectionScope::kDatapathOnly ? "datapath" : "all";
}

const char* schedule_name(RateScheduleKind k) {
  switch (k) {
    case RateScheduleKind::kConstant:
      return "constant";
    case RateScheduleKind::kLinear:
      return "linear";
    case RateScheduleKind::kWeibull:
      return "weibull";
  }
  return "constant";
}

// ------------------------------------------------------------- parsing

bool fail(std::string* error, std::string_view why) {
  if (error != nullptr) {
    error->assign(why);
  }
  return false;
}

// Required member of a given kind; nullptr (with reason) otherwise.
const JsonValue* require(const JsonValue& doc, const char* key,
                         JsonValue::Kind kind, std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) {
    if (error != nullptr) {
      *error = std::string("missing field '") + key + "'";
    }
    return nullptr;
  }
  if (v->kind() != kind) {
    if (error != nullptr) {
      *error = std::string("field '") + key + "' has the wrong type";
    }
    return nullptr;
  }
  return v;
}

// Optional u64 member with range check; `out` untouched when absent.
bool read_u64(const JsonValue& doc, const char* key, std::uint64_t lo,
              std::uint64_t hi, std::uint64_t* out, std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) {
    return true;
  }
  const std::optional<std::uint64_t> n =
      v->is_number() ? v->as_u64() : std::nullopt;
  if (!n.has_value() || *n < lo || *n > hi) {
    return fail(error, std::string("field '") + key +
                           "' is not an integer in range");
  }
  *out = *n;
  return true;
}

// Optional finite double member with range check.
bool read_f64(const JsonValue& doc, const char* key, double lo, double hi,
              double* out, std::string* error) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr) {
    return true;
  }
  const std::optional<double> n =
      v->is_number() ? v->as_double() : std::nullopt;
  if (!n.has_value() || !std::isfinite(*n) || *n < lo || *n > hi) {
    return fail(error, std::string("field '") + key +
                           "' is not a finite number in range");
  }
  *out = *n;
  return true;
}

bool parse_sweep_fields(const JsonValue& doc, SweepRequest* req,
                        std::string* error) {
  const JsonValue* alu =
      require(doc, "alu", JsonValue::Kind::kString, error);
  const JsonValue* percents =
      require(doc, "percents", JsonValue::Kind::kArray, error);
  const JsonValue* trials =
      require(doc, "trials", JsonValue::Kind::kNumber, error);
  const JsonValue* seed =
      require(doc, "seed", JsonValue::Kind::kNumber, error);
  if (alu == nullptr || percents == nullptr || trials == nullptr ||
      seed == nullptr) {
    return false;
  }
  req->alu = alu->as_string();
  if (req->alu.empty() || req->alu.size() > 64) {
    return fail(error, "field 'alu' is empty or implausibly long");
  }
  if (percents->items().empty() || percents->items().size() > 64) {
    return fail(error, "field 'percents' must hold 1..64 entries");
  }
  req->spec.percents.clear();
  for (const JsonValue& p : percents->items()) {
    const std::optional<double> v =
        p.is_number() ? p.as_double() : std::nullopt;
    if (!v.has_value() || !valid_fault_percent(*v)) {
      return fail(error, "field 'percents' entries must be in [0, 100]");
    }
    req->spec.percents.push_back(*v);
  }
  const std::optional<std::int64_t> t = trials->as_i64();
  if (!t.has_value() || !valid_trials_per_workload(*t)) {
    return fail(error, "field 'trials' must be in [1, 1000000]");
  }
  req->spec.trials_per_workload = static_cast<int>(*t);
  const std::optional<std::uint64_t> s = seed->as_u64();
  if (!s.has_value()) {
    return fail(error, "field 'seed' must be a u64");
  }
  req->spec.seed = *s;

  // Optional knobs; defaults are SweepSpec's defaults (the paper's
  // i.i.d. model), so an explicit default and an absent field produce
  // the same parsed request — and therefore the same fingerprint.
  if (const JsonValue* v = doc.find("policy")) {
    if (!v->is_string()) {
      return fail(error, "field 'policy' has the wrong type");
    }
    const std::optional<FaultCountPolicy> p = policy_from_name(v->as_string());
    if (!p.has_value()) {
      return fail(error, "unknown policy '" + v->as_string() + "'");
    }
    req->spec.policy = *p;
  }
  if (const JsonValue* v = doc.find("scope")) {
    if (!v->is_string()) {
      return fail(error, "field 'scope' has the wrong type");
    }
    const std::optional<InjectionScope> sc = scope_from_name(v->as_string());
    if (!sc.has_value()) {
      return fail(error, "unknown scope '" + v->as_string() + "'");
    }
    req->spec.scope = *sc;
  }
  if (const JsonValue* v = doc.find("schedule")) {
    if (!v->is_string()) {
      return fail(error, "field 'schedule' has the wrong type");
    }
    const std::optional<RateScheduleKind> k = schedule_from_name(v->as_string());
    if (!k.has_value()) {
      return fail(error, "unknown schedule '" + v->as_string() + "'");
    }
    req->spec.scenario.schedule.kind = *k;
  }
  std::uint64_t u = 0;
  u = req->spec.datapath_sites;
  if (!read_u64(doc, "datapath_sites", 0, 1'000'000, &u, error)) {
    return false;
  }
  req->spec.datapath_sites = static_cast<std::size_t>(u);
  u = req->spec.burst_length;
  if (!read_u64(doc, "burst_length", 1, 64, &u, error)) {
    return false;
  }
  req->spec.burst_length = static_cast<std::size_t>(u);
  u = req->spec.scenario.burst_rows;
  if (!read_u64(doc, "burst_rows", 1, 64, &u, error)) {
    return false;
  }
  req->spec.scenario.burst_rows = static_cast<std::size_t>(u);
  u = req->spec.scenario.burst_row_stride;
  if (!read_u64(doc, "burst_row_stride", 0, 1'000'000, &u, error)) {
    return false;
  }
  req->spec.scenario.burst_row_stride = static_cast<std::size_t>(u);
  if (!read_f64(doc, "end_factor", 0.0, 1000.0,
                &req->spec.scenario.schedule.end_factor, error) ||
      !read_f64(doc, "shape", 1e-3, 100.0,
                &req->spec.scenario.schedule.shape, error)) {
    return false;
  }
  if (req->spec.scope == InjectionScope::kDatapathOnly &&
      req->spec.datapath_sites < 1) {
    return fail(error, "scope 'datapath' requires datapath_sites >= 1");
  }
  return true;
}

// ---------------------------------------------------------- fnv stream

// Streaming FNV-1a over fixed-width little-endian words: the repo's one
// hash (common/rng.cpp fnv1a64) generalized to a running state so the
// fingerprint never materializes a buffer. Allocation-free.
class Fnv64 {
 public:
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    for (const char c : s) {
      h_ ^= static_cast<unsigned char>(c);
      h_ *= 0x100000001b3ULL;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// --------------------------------------------------------- rendering

void append_points(std::string& out, const std::vector<DataPoint>& points) {
  out += "[";
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += "{\"fault_percent\":";
    out += json_double(points[i].fault_percent);
    out += ",\"mean_percent_correct\":";
    out += json_double(points[i].mean_percent_correct);
    out += ",\"stddev\":";
    out += json_double(points[i].stddev);
    out += ",\"ci95\":";
    out += json_double(points[i].ci95);
    out += ",\"samples\":";
    out += std::to_string(points[i].samples);
    out += "}";
  }
  out += "]";
}

}  // namespace

std::optional<FaultCountPolicy> policy_from_name(std::string_view s) {
  if (s == "round") return FaultCountPolicy::kRoundNearest;
  if (s == "floor") return FaultCountPolicy::kFloor;
  if (s == "bernoulli") return FaultCountPolicy::kBernoulli;
  if (s == "burst") return FaultCountPolicy::kBurst;
  return std::nullopt;
}

std::optional<InjectionScope> scope_from_name(std::string_view s) {
  if (s == "all") return InjectionScope::kAll;
  if (s == "datapath") return InjectionScope::kDatapathOnly;
  return std::nullopt;
}

std::optional<RateScheduleKind> schedule_from_name(std::string_view s) {
  if (s == "constant") return RateScheduleKind::kConstant;
  if (s == "linear") return RateScheduleKind::kLinear;
  if (s == "weibull") return RateScheduleKind::kWeibull;
  return std::nullopt;
}

std::optional<ParsedRequest> parse_request(std::string_view payload,
                                           std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::parse(payload, &parse_error);
  if (!doc.has_value()) {
    if (error != nullptr) {
      *error = "bad json: " + parse_error;
    }
    return std::nullopt;
  }
  if (!doc->is_object()) {
    fail(error, "request is not a JSON object");
    return std::nullopt;
  }
  const JsonValue* kind = require(*doc, "kind", JsonValue::Kind::kString,
                                  error);
  if (kind == nullptr) {
    return std::nullopt;
  }
  ParsedRequest req;
  if (kind->as_string() == "ping") {
    req.kind = RequestKind::kPing;
    return req;
  }
  if (kind->as_string() == "stats") {
    req.kind = RequestKind::kStats;
    return req;
  }
  if (kind->as_string() == "sweep") {
    req.kind = RequestKind::kSweep;
    if (!parse_sweep_fields(*doc, &req.sweep, error)) {
      return std::nullopt;
    }
    return req;
  }
  fail(error, "unknown request kind '" + kind->as_string() + "'");
  return std::nullopt;
}

std::string render_sweep_request(const SweepRequest& req) {
  const SweepSpec& s = req.spec;
  std::string out = "{\"kind\":\"sweep\",\"alu\":\"";
  out += json_escape(req.alu);
  out += "\",\"percents\":[";
  for (std::size_t i = 0; i < s.percents.size(); ++i) {
    if (i != 0) {
      out += ",";
    }
    out += json_double(s.percents[i]);
  }
  out += "],\"trials\":";
  out += std::to_string(s.trials_per_workload);
  out += ",\"seed\":";
  out += std::to_string(s.seed);
  out += ",\"policy\":\"";
  out += policy_name(s.policy);
  out += "\",\"scope\":\"";
  out += scope_name(s.scope);
  out += "\",\"datapath_sites\":";
  out += std::to_string(s.datapath_sites);
  out += ",\"burst_length\":";
  out += std::to_string(s.burst_length);
  out += ",\"schedule\":\"";
  out += schedule_name(s.scenario.schedule.kind);
  out += "\",\"end_factor\":";
  out += json_double(s.scenario.schedule.end_factor);
  out += ",\"shape\":";
  out += json_double(s.scenario.schedule.shape);
  out += ",\"burst_rows\":";
  out += std::to_string(s.scenario.burst_rows);
  out += ",\"burst_row_stride\":";
  out += std::to_string(s.scenario.burst_row_stride);
  out += "}";
  return out;
}

std::string render_ping_request() { return "{\"kind\":\"ping\"}"; }
std::string render_stats_request() { return "{\"kind\":\"stats\"}"; }

void render_ok_response(std::string& out, std::uint64_t fingerprint,
                        const SweepRecord& record) {
  out += "{\"nbxd\":";
  out += std::to_string(kWireVersion);
  out += ",\"status\":\"ok\",\"fingerprint\":";
  out += std::to_string(fingerprint);
  out += ",\"alu\":\"";
  out += json_escape(record.alu);
  out += "\",\"points\":";
  append_points(out, record.points);
  if (!record.point_metrics.empty()) {
    out += ",\"anatomy\":[";
    for (std::size_t i = 0; i < record.point_metrics.size(); ++i) {
      if (i != 0) {
        out += ",";
      }
      out += obs::counters_json(record.point_metrics[i]);
    }
    out += "]";
  }
  out += "}";
}

void render_error_response(std::string& out, std::string_view message) {
  out += "{\"nbxd\":";
  out += std::to_string(kWireVersion);
  out += ",\"status\":\"error\",\"error\":\"";
  out += json_escape(message);
  out += "\"}";
}

void render_shed_response(std::string& out, std::uint32_t retry_after_ms) {
  out += "{\"nbxd\":";
  out += std::to_string(kWireVersion);
  out += ",\"status\":\"shed\",\"retry_after_ms\":";
  out += std::to_string(retry_after_ms);
  out += "}";
}

std::uint64_t request_fingerprint(const SweepRequest& req) {
  // Cached: the seed-chain probe allocates internally; everything below
  // is arithmetic, keeping the cache-hit serve path allocation-free
  // (tests/audit/alloc_audit_test.cpp counts).
  static const std::uint64_t chain = seed_chain_fingerprint();
  const SweepSpec& s = req.spec;
  Fnv64 h;
  h.u64(kWireVersion);
  h.str(req.alu);
  h.u64(s.percents.size());
  for (const double p : s.percents) {
    h.f64(p);
  }
  h.u64(static_cast<std::uint64_t>(s.trials_per_workload));
  h.u64(s.seed);
  h.u64(static_cast<std::uint64_t>(s.policy));
  h.u64(static_cast<std::uint64_t>(s.scope));
  h.u64(s.datapath_sites);
  h.u64(s.burst_length);
  h.u64(static_cast<std::uint64_t>(s.scenario.schedule.kind));
  h.f64(s.scenario.schedule.end_factor);
  h.f64(s.scenario.schedule.shape);
  h.u64(s.scenario.burst_rows);
  h.u64(s.scenario.burst_row_stride);
  h.u64(chain);
  h.u64(kGoldenRegistryFingerprint);
  return h.value();
}

void append_frame(std::string& out, std::string_view payload) {
  char header[kFrameHeaderBytes];
  encode_frame_header(header, static_cast<std::uint32_t>(payload.size()));
  out.append(header, kFrameHeaderBytes);
  out.append(payload);
}

void encode_frame_header(char* bytes, std::uint32_t payload_len) {
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    bytes[i] = static_cast<char>((payload_len >> (8 * i)) & 0xffu);
  }
}

std::uint32_t decode_frame_header(const char* bytes) {
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[i]))
           << (8 * i);
  }
  return len;
}

}  // namespace nbx::serve
