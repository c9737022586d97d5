// serve_oracle.cpp — the serve-differential property family.
//
// The nbxd service's whole value proposition is "the daemon is the
// engine": a sweep served from the worker pool — sharded, coalesced,
// cached — must be *byte-identical* to a direct TrialEngine run of the
// same spec. This family generates SweepSpecs, drives them through a
// live in-process SweepService, and compares the rendered response
// against a locally-rendered direct-engine record:
//
//   * first submission: response bytes == render_ok_response(direct run)
//     — points AND anatomy counters, through generated worker counts and
//     shard sizes (min_items_per_shard down to 1 forces many-shard
//     merges);
//   * resubmission: the cache must return the identical bytes, and the
//     service stats must show exactly one computed job;
//   * a corrupted copy of the request payload (strict truncation, a
//     single bit flip, or seeded garbage) must always produce a
//     structured response — truncation/garbage a status:"error" one, a
//     bit flip either a valid "ok" or "error" (a flipped digit can spell
//     a different valid request) — and never a crash.
#include <cstddef>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "alu/alu_factory.hpp"
#include "check/gen.hpp"
#include "check/json_value.hpp"
#include "check/oracles.hpp"
#include "check/property.hpp"
#include "common/rng.hpp"
#include "obs/json.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sim/trial_engine.hpp"

namespace nbx::check {
namespace {

constexpr const char* kServeName = "serve-differential";

/// Low-rate half of the paper sweep (same rationale as the engine
/// family: execution-path diversity, not fault physics).
const std::vector<double> kServePercentPool = {0.0, 0.05, 0.1, 0.5, 1.0,
                                               2.0, 3.0,  5.0, 10.0};

struct ServeCase {
  std::string alu;
  std::vector<double> percents;  // 1..2 entries
  int trials = 1;                // 1..3
  std::uint64_t seed = 0;
  std::string policy = "round";    // round | floor | bernoulli | burst
  std::size_t burst_length = 1;
  std::string scope = "all";       // all | datapath
  std::size_t datapath_sites = 0;
  std::string schedule = "constant";  // constant | linear | weibull
  double end_factor = 1.0;
  double shape = 1.0;
  unsigned workers = 2;      // service worker threads (1..3)
  std::size_t min_shard = 1;  // min items per shard; 1 forces sharding
  std::string corrupt = "none";  // none | truncate | bitflip | garbage
  std::uint64_t corrupt_seed = 0;
};

ServeCase generate_serve_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  const AluSpec& spec = specs[g.below(specs.size())];
  ServeCase c;
  c.alu = spec.name;
  const std::size_t n_percents = g.length(1, 2);
  for (std::uint64_t i :
       g.distinct_below(kServePercentPool.size(), n_percents)) {
    c.percents.push_back(kServePercentPool[i]);
  }
  c.trials = static_cast<int>(g.in_range(1, 3));
  c.seed = g.u64();
  c.policy = g.pick({std::string("round"), std::string("floor"),
                     std::string("bernoulli"), std::string("burst")});
  c.burst_length = c.policy == "burst" ? g.in_range(1, 4) : 1;
  if (g.boolean(0.3)) {
    c.scope = "datapath";
    c.datapath_sites = g.in_range(1, spec.expected_sites);
  }
  c.schedule = g.pick({std::string("constant"), std::string("linear"),
                       std::string("weibull")});
  if (c.schedule != "constant") {
    c.end_factor = g.pick({0.5, 2.0, 3.0});
  }
  if (c.schedule == "weibull") {
    c.shape = g.pick({0.5, 2.0});
  }
  c.workers = static_cast<unsigned>(g.in_range(1, 3));
  c.min_shard = g.in_range(1, 8);
  c.corrupt = g.pick({std::string("none"), std::string("truncate"),
                      std::string("bitflip"), std::string("garbage")});
  c.corrupt_seed = g.u64();
  return c;
}

std::string serve_case_json(const ServeCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kServeName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"percents\": [";
  for (std::size_t i = 0; i < c.percents.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_double(c.percents[i]);
  }
  os << "], \"trials\": " << c.trials << ", \"seed\": " << c.seed
     << ", \"policy\": \"" << c.policy
     << "\", \"burst_length\": " << c.burst_length << ", \"scope\": \""
     << c.scope << "\", \"datapath_sites\": " << c.datapath_sites
     << ", \"schedule\": \"" << c.schedule
     << "\", \"end_factor\": " << json_double(c.end_factor)
     << ", \"shape\": " << json_double(c.shape)
     << ", \"workers\": " << c.workers
     << ", \"min_shard\": " << c.min_shard << ", \"corrupt\": \""
     << c.corrupt << "\", \"corrupt_seed\": " << c.corrupt_seed << "}";
  return os.str();
}

const JsonValue* need(const JsonValue& doc, const char* key,
                      JsonValue::Kind kind) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != kind) {
    return nullptr;
  }
  return v;
}

std::optional<ServeCase> serve_case_from_json(const JsonValue& doc) {
  const JsonValue* fam = need(doc, "family", JsonValue::Kind::kString);
  if (fam == nullptr || fam->as_string() != kServeName) {
    return std::nullopt;
  }
  const JsonValue* alu = need(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* percents =
      need(doc, "percents", JsonValue::Kind::kArray);
  const JsonValue* trials = need(doc, "trials", JsonValue::Kind::kNumber);
  const JsonValue* seed = need(doc, "seed", JsonValue::Kind::kNumber);
  const JsonValue* policy = need(doc, "policy", JsonValue::Kind::kString);
  const JsonValue* burst =
      need(doc, "burst_length", JsonValue::Kind::kNumber);
  const JsonValue* scope = need(doc, "scope", JsonValue::Kind::kString);
  const JsonValue* dp =
      need(doc, "datapath_sites", JsonValue::Kind::kNumber);
  const JsonValue* schedule =
      need(doc, "schedule", JsonValue::Kind::kString);
  const JsonValue* end_factor =
      need(doc, "end_factor", JsonValue::Kind::kNumber);
  const JsonValue* shape = need(doc, "shape", JsonValue::Kind::kNumber);
  const JsonValue* workers = need(doc, "workers", JsonValue::Kind::kNumber);
  const JsonValue* min_shard =
      need(doc, "min_shard", JsonValue::Kind::kNumber);
  const JsonValue* corrupt = need(doc, "corrupt", JsonValue::Kind::kString);
  const JsonValue* corrupt_seed =
      need(doc, "corrupt_seed", JsonValue::Kind::kNumber);
  if (alu == nullptr || percents == nullptr || trials == nullptr ||
      seed == nullptr || policy == nullptr || burst == nullptr ||
      scope == nullptr || dp == nullptr || schedule == nullptr ||
      end_factor == nullptr || shape == nullptr || workers == nullptr ||
      min_shard == nullptr || corrupt == nullptr ||
      corrupt_seed == nullptr) {
    return std::nullopt;
  }
  ServeCase c;
  c.alu = alu->as_string();
  for (const JsonValue& p : percents->items()) {
    if (!p.is_number()) {
      return std::nullopt;
    }
    c.percents.push_back(p.as_double().value_or(0.0));
  }
  c.trials = static_cast<int>(trials->as_i64().value_or(1));
  c.seed = seed->as_u64().value_or(0);
  c.policy = policy->as_string();
  c.burst_length = static_cast<std::size_t>(burst->as_u64().value_or(1));
  c.scope = scope->as_string();
  c.datapath_sites = static_cast<std::size_t>(dp->as_u64().value_or(0));
  c.schedule = schedule->as_string();
  c.end_factor = end_factor->as_double().value_or(1.0);
  c.shape = shape->as_double().value_or(1.0);
  c.workers = static_cast<unsigned>(workers->as_u64().value_or(1));
  c.min_shard =
      static_cast<std::size_t>(min_shard->as_u64().value_or(1));
  c.corrupt = corrupt->as_string();
  c.corrupt_seed = corrupt_seed->as_u64().value_or(0);
  return c;
}

/// Builds the wire request for a case (nullopt = invalid case).
std::optional<serve::SweepRequest> case_request(const ServeCase& c,
                                                std::string* why) {
  const std::optional<AluSpec> spec = find_spec(c.alu);
  if (!spec.has_value()) {
    *why = "invalid case: unknown alu '" + c.alu + "'";
    return std::nullopt;
  }
  serve::SweepRequest req;
  req.alu = c.alu;
  req.spec.percents = c.percents;
  req.spec.trials_per_workload = c.trials;
  req.spec.seed = c.seed;
  const std::optional<FaultCountPolicy> policy =
      serve::policy_from_name(c.policy);
  const std::optional<InjectionScope> scope =
      serve::scope_from_name(c.scope);
  const std::optional<RateScheduleKind> schedule =
      serve::schedule_from_name(c.schedule);
  if (!policy.has_value() || !scope.has_value() || !schedule.has_value()) {
    *why = "invalid case: unknown policy/scope/schedule name";
    return std::nullopt;
  }
  req.spec.policy = *policy;
  req.spec.scope = *scope;
  req.spec.scenario.schedule.kind = *schedule;
  req.spec.scenario.schedule.end_factor = c.end_factor;
  req.spec.scenario.schedule.shape = c.shape;
  req.spec.burst_length = c.burst_length;
  req.spec.datapath_sites = c.datapath_sites;
  if (c.scope == "datapath" &&
      (c.datapath_sites < 1 || c.datapath_sites > spec->expected_sites)) {
    *why = "invalid case: datapath_sites out of range";
    return std::nullopt;
  }
  if (c.percents.empty() || c.trials < 1 || c.workers < 1 ||
      c.min_shard < 1) {
    *why = "invalid case: empty percents or non-positive knob";
    return std::nullopt;
  }
  return req;
}

/// The response `status` field, or nullopt when the payload is not a
/// JSON object with a string status — i.e. not a structured response.
std::optional<std::string> response_status(const std::string& payload) {
  const std::optional<JsonValue> doc = JsonValue::parse(payload);
  if (!doc.has_value() || !doc->is_object()) {
    return std::nullopt;
  }
  const JsonValue* status = doc->find("status");
  if (status == nullptr || !status->is_string()) {
    return std::nullopt;
  }
  return status->as_string();
}

std::optional<std::string> run_serve_case(const ServeCase& c) {
  std::string why;
  const std::optional<serve::SweepRequest> req = case_request(c, &why);
  if (!req.has_value()) {
    return why;
  }

  // The direct-engine expectation: scalar serial TrialEngine, rendered
  // through the same canonical renderer the service uses.
  const std::unique_ptr<IAlu> alu = make_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: alu construction failed";
  }
  const std::vector<std::vector<Instruction>> streams =
      paper_streams(req->spec.seed);
  TrialEngine engine{ParallelConfig{}};
  const SweepAnatomy direct =
      engine.sweep_anatomy(*alu, streams, req->spec);
  SweepRecord record;
  record.alu = c.alu;
  record.points = direct.points;
  record.point_metrics = direct.metrics;
  std::string expected;
  serve::render_ok_response(expected, serve::request_fingerprint(*req),
                            record);

  // A live service with generated worker count and shard granularity.
  serve::ServiceConfig cfg;
  cfg.workers = c.workers;
  cfg.max_queue = 64;
  cfg.min_items_per_shard = c.min_shard;
  serve::SweepService service(cfg);
  const std::string payload = serve::render_sweep_request(*req);

  std::string first;
  service.handle(payload, first);
  if (first != expected) {
    std::size_t at = 0;
    while (at < first.size() && at < expected.size() &&
           first[at] == expected[at]) {
      ++at;
    }
    std::ostringstream os;
    os << "served response diverges from direct engine render at byte "
       << at << ": served \""
       << first.substr(at > 20 ? at - 20 : 0, 60) << "\" vs direct \""
       << expected.substr(at > 20 ? at - 20 : 0, 60) << "\"";
    return os.str();
  }

  // Resubmission: identical bytes from the cache, exactly one compute.
  std::string second;
  service.handle(payload, second);
  if (second != first) {
    return "cache returned different bytes on resubmission";
  }
  const serve::ServiceStats stats = service.stats();
  if (stats.jobs_computed != 1) {
    return "expected exactly 1 computed job after a duplicate, got " +
           std::to_string(stats.jobs_computed);
  }
  if (stats.hits < 1) {
    return "resubmission did not hit the cache (hits = " +
           std::to_string(stats.hits) + ")";
  }

  // Corruption: a damaged payload must produce a structured response,
  // never a crash. Strict truncation and garbage can never parse (the
  // strict reader rejects every proper prefix of an object and trailing
  // garbage), so those must be status:"error"; a single bit flip may
  // legitimately spell a different valid request, so either status is
  // acceptable as long as the response stays structured.
  std::string corrupted = payload;
  bool must_be_error = true;
  if (c.corrupt == "none") {
    return std::nullopt;
  }
  if (c.corrupt == "truncate") {
    corrupted.resize(c.corrupt_seed % payload.size());
  } else if (c.corrupt == "bitflip") {
    const std::size_t bit = c.corrupt_seed % (payload.size() * 8);
    corrupted[bit / 8] = static_cast<char>(
        static_cast<unsigned char>(corrupted[bit / 8]) ^
        (1u << (bit % 8)));
    must_be_error = false;
  } else if (c.corrupt == "garbage") {
    Rng rng(c.corrupt_seed);
    corrupted.resize(1 + rng.below(64));
    for (char& ch : corrupted) {
      ch = static_cast<char>(rng.below(256));
    }
  } else {
    return "invalid case: unknown corrupt kind '" + c.corrupt + "'";
  }
  std::string response;
  service.handle(corrupted, response);
  const std::optional<std::string> status = response_status(response);
  if (!status.has_value()) {
    return "corrupted payload (" + c.corrupt +
           ") produced an unstructured response: " + response;
  }
  if (must_be_error && *status != "error") {
    return "corrupted payload (" + c.corrupt +
           ") was not rejected: status \"" + *status + "\"";
  }
  if (!must_be_error && *status != "error" && *status != "ok" &&
      *status != "shed") {
    return "bit-flipped payload produced unknown status \"" + *status +
           "\"";
  }
  return std::nullopt;
}

std::vector<ServeCase> shrink_serve_case(const ServeCase& c) {
  std::vector<ServeCase> out;
  if (c.corrupt != "none") {
    ServeCase s = c;
    s.corrupt = "none";
    out.push_back(std::move(s));
  }
  if (c.percents.size() > 1) {
    ServeCase s = c;
    s.percents.assign(1, c.percents.front());
    out.push_back(std::move(s));
  }
  if (c.trials > 1) {
    ServeCase s = c;
    s.trials = 1;
    out.push_back(std::move(s));
  }
  if (c.schedule != "constant") {
    ServeCase s = c;
    s.schedule = "constant";
    s.end_factor = 1.0;
    s.shape = 1.0;
    out.push_back(std::move(s));
  }
  if (c.policy != "round") {
    ServeCase s = c;
    s.policy = "round";
    s.burst_length = 1;
    out.push_back(std::move(s));
  }
  if (c.scope != "all") {
    ServeCase s = c;
    s.scope = "all";
    s.datapath_sites = 0;
    out.push_back(std::move(s));
  }
  if (c.workers > 1) {
    ServeCase s = c;
    s.workers = 1;
    out.push_back(std::move(s));
  }
  if (c.min_shard > 1) {
    ServeCase s = c;
    s.min_shard = 1;
    out.push_back(std::move(s));
  }
  if (c.seed != 0) {
    ServeCase s = c;
    s.seed = 0;
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace

Property serve_differential_property() {
  PropertyDef<ServeCase> def;
  def.name = kServeName;
  def.generate = generate_serve_case;
  def.run = run_serve_case;
  def.shrink = shrink_serve_case;
  def.to_json = serve_case_json;
  def.from_json = serve_case_from_json;
  return Property::make(std::move(def));
}

}  // namespace nbx::check
