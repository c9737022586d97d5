#include "check/oracles.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <iomanip>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <type_traits>

#include "alu/alu_factory.hpp"
#include "alu/cmos_core_alu.hpp"
#include "cell/processor_cell.hpp"
#include "coding/hamming.hpp"
#include "coding/hsiao.hpp"
#include "coding/majority.hpp"
#include "coding/reed_solomon.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "fault/defect_map.hpp"
#include "fault/mask_generator.hpp"
#include "fault/remap.hpp"
#include "fault/scenario.hpp"
#include "lut/coded_lut.hpp"
#include "lut/truth_table.hpp"
#include "obs/counters.hpp"
#include "obs/json.hpp"
#include "serve/wire.hpp"
#include "sim/trial_engine.hpp"
#include "simd/simd_dispatch.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx::check {
namespace {

// ---------------------------------------------------------------- shared

/// Full-precision double rendering for failure messages (json_double is
/// used for the serialized case itself).
std::string show(double v) {
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

const JsonValue* require(const JsonValue& doc, const char* key,
                         JsonValue::Kind kind) {
  const JsonValue* v = doc.find(key);
  if (v == nullptr || v->kind() != kind) {
    return nullptr;
  }
  return v;
}

/// All case documents carry a "family" tag so a repro file replayed
/// against the wrong property is rejected at load instead of producing a
/// confusing verdict.
bool family_matches(const JsonValue& doc, const char* name) {
  const JsonValue* fam = require(doc, "family", JsonValue::Kind::kString);
  return fam != nullptr && fam->as_string() == name;
}

/// Field-by-field case decoding: a required field must be present, an
/// absent optional one keeps the case's default, and a present field of
/// the wrong kind fails the whole document.
class FieldReader {
 public:
  explicit FieldReader(const JsonValue& doc) : doc_(doc) {}

  void text(const char* key, std::string& out, bool required = false) {
    if (const JsonValue* v = get(key, JsonValue::Kind::kString, required)) {
      out = v->as_string();
    }
  }
  void flag(const char* key, bool& out, bool required = false) {
    if (const JsonValue* v = get(key, JsonValue::Kind::kBool, required)) {
      out = v->as_bool();
    }
  }
  template <typename T>
  void number(const char* key, T& out, bool required = false) {
    const JsonValue* v = get(key, JsonValue::Kind::kNumber, required);
    if (v == nullptr) {
      return;
    }
    if constexpr (std::is_floating_point_v<T>) {
      out = v->as_double().value_or(out);
    } else if constexpr (std::is_signed_v<T>) {
      out = static_cast<T>(v->as_i64().value_or(out));
    } else {
      out = static_cast<T>(v->as_u64().value_or(out));
    }
  }
  void numbers(const char* key, std::vector<double>& out) {
    if (const JsonValue* v = get(key, JsonValue::Kind::kArray, true)) {
      for (const JsonValue& x : v->items()) {
        ok_ = ok_ && x.is_number();
        out.push_back(x.as_double().value_or(0.0));
      }
    }
  }
  [[nodiscard]] bool ok() const { return ok_; }

 private:
  const JsonValue* get(const char* key, JsonValue::Kind kind,
                       bool required) {
    const JsonValue* v = doc_.find(key);
    if (v == nullptr ? required : v->kind() != kind) {
      ok_ = false;
    }
    return ok_ ? v : nullptr;
  }

  const JsonValue& doc_;
  bool ok_ = true;
};

std::optional<Opcode> opcode_by_name(const std::string& name) {
  for (Opcode op : kAllOpcodes) {
    if (opcode_name(op) == name) {
      return op;
    }
  }
  return std::nullopt;
}

// ------------------------------------------------ backend-differential

constexpr const char* kBackendName = "backend-differential";

/// The families this one absorbed. Their repro files still replay here:
/// the names resolve to this family, and the case decoder accepts their
/// tags, defaulting the fields their schemas lacked.
constexpr std::array<std::string_view, 3> kAbsorbedNames = {
    "engine-differential", "simd-differential", "scenario-differential"};

/// Percent pool for generated sweeps: the low-rate half of the paper
/// sweep. High percentages add runtime without adding scheduling
/// diversity (the differential contract is about execution paths, not
/// fault physics).
const std::vector<double> kPercentPool = {0.0, 0.05, 0.1, 0.5, 1.0,
                                          2.0, 3.0,  5.0, 10.0};

/// One generated experiment (ALU, percents, trials, seed, fault policy,
/// scope, wear-out schedule, 2-D burst) and the execution shape it is
/// replayed in: wide-engine lanes and pool threads.
struct BackendCase {
  std::string alu;
  std::vector<double> percents;
  int trials = 1;
  std::uint64_t seed = 0;
  std::string policy = "round";  // round | floor | bernoulli | burst
  std::size_t burst_length = 1;
  std::size_t burst_rows = 1;
  std::size_t burst_row_stride = 0;  // 0 = historical 1-D runs
  std::string scope = "all";  // all | datapath
  std::size_t datapath_sites = 0;
  std::string schedule = "constant";  // constant | linear | weibull
  double end_factor = 1.0;
  double shape = 1.0;
  unsigned lanes = 2;    // 1..512 wide-engine lanes
  unsigned threads = 2;  // pool width of every threaded pass
};

/// A case costs what its three scalar passes cost: the wide engine runs
/// every ALU word-parallel, the gate-level hw read path included, one
/// to two orders of magnitude faster. At 2% a scalar trial takes ~0.9
/// ms (alunhw) and ~2.7 ms (alushw, aluthw) on the hw read path and
/// 0.35-0.5 ms for coded LUTs in a redundant module; the rest ~0.1 ms
/// (bench_simd's scalar engine, 16 trials, 4-vCPU AVX-512 host).
bool slow_scalar_trials(const AluSpec& s) {
  const bool coded = s.bit == BitLevel::kHamming ||
                     s.bit == BitLevel::kHsiao ||
                     s.bit == BitLevel::kHammingIdeal ||
                     s.bit == BitLevel::kReedSolomon;
  return s.bit == BitLevel::kTmrHw ||
         (coded && s.module != ModuleLevel::kNone);
}

/// A ramp to total wear-out: every pool rate passes 100% before the last
/// trial, where the schedule must clamp.
constexpr double kTotalWearOut = 5000.0;

BackendCase generate_backend_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  const AluSpec& spec = specs[g.below(specs.size())];
  BackendCase c;
  c.alu = spec.name;
  // Half the fast ALUs' cases spill past the first lane word, so
  // multi-word masks and cross-word scoring run on full groups.
  const bool multi_word = !slow_scalar_trials(spec) && g.boolean(0.5);
  // Half the cases keep the paper's i.i.d. schedule, the lockstep mask
  // layer's domain. end_factor 1.0 on a non-constant kind is the
  // deliberate edge case: the scheduled path must still reproduce the
  // i.i.d. sweep bitwise. A third of the single-word cases ramp to
  // total wear-out, whose late trials are dense and slow.
  c.schedule = g.boolean(0.5) ? std::string("constant")
                              : g.pick({std::string("linear"),
                                        std::string("weibull")});
  c.end_factor = !multi_word && g.boolean(1.0 / 3.0)
                     ? kTotalWearOut
                     : g.pick({0.0, 0.5, 1.0, 2.0, 6.0});
  c.shape = c.schedule == "weibull" ? g.pick({0.5, 2.0, 3.0}) : 1.0;
  // Only a cheap case sweeps several percents: multi-word groups, the hw
  // ALUs and wear-out ramps carry one. The hw cases also stay at 1..4
  // trials, so no case costs more than a few tenths of a second (a fixed
  // SimdTier test covers the gate-level mirror across a lane-word
  // boundary).
  const bool hw = spec.bit == BitLevel::kTmrHw;
  const std::size_t n_percents =
      multi_word || hw || c.end_factor == kTotalWearOut ? 1
                                                        : g.length(1, 3);
  for (std::uint64_t i :
       g.distinct_below(kPercentPool.size(), n_percents)) {
    c.percents.push_back(kPercentPool[i]);
  }
  c.trials = static_cast<int>(multi_word ? g.in_range(65, 140)
                                         : g.in_range(1, hw ? 4 : 8));
  c.seed = g.u64();
  // Bernoulli draws a number per site, so multi-word cases count flips.
  c.policy = multi_word
                 ? g.pick({std::string("round"), std::string("floor"),
                           std::string("burst")})
                 : g.pick({std::string("round"), std::string("floor"),
                           std::string("bernoulli"), std::string("burst")});
  if (c.policy == "burst") {
    c.burst_length = g.in_range(1, 4);
    if (g.boolean(0.6)) {
      c.burst_rows = g.in_range(1, 3);
      c.burst_row_stride = g.pick({std::size_t{4}, std::size_t{8},
                                   std::size_t{16}, std::size_t{24}});
    }
  }
  if (g.boolean(0.3)) {
    c.scope = "datapath";
    c.datapath_sites = g.in_range(1, spec.expected_sites);
  }
  // 1..64 exercises the single-word layout, 65..512 the multi-word SIMD
  // substrate (2/4/8 lane words).
  c.lanes = static_cast<unsigned>(g.in_range(1, 512));
  c.threads = static_cast<unsigned>(g.in_range(2, 8));
  return c;
}

std::string backend_case_json(const BackendCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kBackendName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"percents\": [";
  for (std::size_t i = 0; i < c.percents.size(); ++i) {
    os << (i == 0 ? "" : ", ") << json_double(c.percents[i]);
  }
  os << "], \"trials\": " << c.trials << ", \"seed\": " << c.seed
     << ", \"policy\": \"" << c.policy
     << "\", \"burst_length\": " << c.burst_length
     << ", \"burst_rows\": " << c.burst_rows
     << ", \"burst_row_stride\": " << c.burst_row_stride
     << ", \"scope\": \"" << c.scope
     << "\", \"datapath_sites\": " << c.datapath_sites
     << ", \"schedule\": \"" << c.schedule
     << "\", \"end_factor\": " << json_double(c.end_factor)
     << ", \"shape\": " << json_double(c.shape)
     << ", \"lanes\": " << c.lanes << ", \"threads\": " << c.threads
     << "}";
  return os.str();
}

std::optional<BackendCase> backend_case_from_json(const JsonValue& doc) {
  const JsonValue* fam = require(doc, "family", JsonValue::Kind::kString);
  if (fam == nullptr ||
      (fam->as_string() != kBackendName &&
       std::ranges::find(kAbsorbedNames, fam->as_string()) ==
           kAbsorbedNames.end())) {
    return std::nullopt;
  }
  FieldReader r(doc);
  BackendCase c;
  // Required: the fields every absorbed family's schema carried.
  r.text("alu", c.alu, true);
  r.numbers("percents", c.percents);
  r.number("trials", c.trials, true);
  r.number("seed", c.seed, true);
  r.text("policy", c.policy, true);
  r.number("burst_length", c.burst_length, true);
  r.number("lanes", c.lanes, true);
  r.number("burst_rows", c.burst_rows);
  r.number("burst_row_stride", c.burst_row_stride);
  r.text("scope", c.scope);
  r.number("datapath_sites", c.datapath_sites);
  r.text("schedule", c.schedule);
  r.number("end_factor", c.end_factor);
  r.number("shape", c.shape);
  r.number("threads", c.threads);
  return r.ok() ? std::optional<BackendCase>(c) : std::nullopt;
}

std::string show(const DataPoint& p) {
  return p.alu + " @" + show(p.fault_percent) + "%: mean " +
         show(p.mean_percent_correct) + ", stddev " + show(p.stddev) +
         ", ci95 " + show(p.ci95) + ", samples " + std::to_string(p.samples);
}

std::optional<std::string> compare_points(
    const std::vector<DataPoint>& base, const std::vector<DataPoint>& got,
    const std::string& variant) {
  if (got.size() != base.size()) {
    return variant + " returned " + std::to_string(got.size()) +
           " points, baseline " + std::to_string(base.size());
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    const DataPoint& b = base[i];
    const DataPoint& g = got[i];
    if (g.alu != b.alu || g.fault_percent != b.fault_percent ||
        g.mean_percent_correct != b.mean_percent_correct ||
        g.stddev != b.stddev || g.ci95 != b.ci95 || g.samples != b.samples) {
      return variant + " diverges from scalar-serial baseline at point " +
             std::to_string(i) + ": " + show(g) + " != " + show(b);
    }
  }
  return std::nullopt;
}

/// Points, then every anatomy counter (scenario counters included).
std::optional<std::string> compare_anatomy(const SweepAnatomy& base,
                                           const SweepAnatomy& got,
                                           const std::string& variant) {
  if (std::optional<std::string> msg =
          compare_points(base.points, got.points, variant)) {
    return msg;
  }
  if (base.metrics.size() != got.metrics.size()) {
    return variant + ": anatomy metrics count differs from baseline";
  }
  for (std::size_t i = 0; i < base.metrics.size(); ++i) {
    if (!(base.metrics[i] == got.metrics[i])) {
      return variant +
             ": anatomy counters diverge from scalar-serial baseline at "
             "percent index " +
             std::to_string(i) + " (" + show(base.points[i].fault_percent) +
             "%)";
    }
  }
  return std::nullopt;
}

/// The generator laws of a case's scenario: pure checks on the schedule
/// curve, the burst neighbourhood, and the remap plan, no engine
/// involved. Counterexamples here shrink exactly like differential ones.
std::optional<std::string> scenario_laws(const BackendCase& c,
                                         const IAlu& alu,
                                         const RateSchedule& sched) {
  const auto trials = static_cast<std::size_t>(c.trials);
  for (const double base : c.percents) {
    // Trial 0 is the base rate, bit-for-bit: this is what keeps trial
    // seeds (and therefore every pinned golden) unmoved at the start of
    // a wear-out ramp.
    if (std::bit_cast<std::uint64_t>(sched.at(base, 0, trials)) !=
        std::bit_cast<std::uint64_t>(base)) {
      return "schedule law: at(" + show(base) + ", 0, n) != base bitwise";
    }
    const bool constant = sched.kind == RateScheduleKind::kConstant ||
                          sched.end_factor == 1.0;
    const bool up = constant || sched.end_factor >= 1.0;
    double prev = base;
    for (std::size_t t = 1; t < trials; ++t) {
      const double r = sched.at(base, t, trials);
      if (r < 0.0 || r > 100.0) {
        return "schedule law: rate " + show(r) + " escapes [0, 100] at trial " +
               std::to_string(t);
      }
      if (up ? r < prev : r > prev) {
        std::ostringstream os;
        os << "schedule law: not monotone at trial " << t << " (base "
           << show(base) << "): " << show(r) << (up ? " < " : " > ")
           << show(prev);
        return os.str();
      }
      prev = r;
    }
    if (trials > 1) {
      const double want =
          constant ? base : std::clamp(base * sched.end_factor, 0.0, 100.0);
      const double got = sched.at(base, trials - 1, trials);
      if (std::fabs(got - want) > 1e-9 * (1.0 + std::fabs(want))) {
        return "schedule law: endpoint " + show(got) +
               " misses clamp(base*end_factor) = " + show(want);
      }
    }
  }

  const std::size_t sites = alu.fault_sites();
  if (c.policy == "burst" && !c.percents.empty()) {
    const MaskGenerator gen(sites, c.percents.back(),
                            FaultCountPolicy::kBurst, c.burst_length,
                            c.burst_rows, c.burst_row_stride);
    if (const std::size_t strikes = gen.strikes_per_computation();
        strikes > 0) {
      // Replay the strike anchors from a twin Rng: every flipped site
      // must sit inside some declared L-columns-by-R-rows neighbourhood
      // (clipped at the row edge and the end of the site space).
      Rng draw(derive_seed({c.seed, 0xb1}));
      Rng replay(derive_seed({c.seed, 0xb1}));
      const BitVec mask = gen.generate(draw);
      BitVec allowed(sites);
      const std::size_t stride = c.burst_row_stride;
      for (std::size_t s = 0; s < strikes; ++s) {
        const auto anchor = static_cast<std::size_t>(replay.below(sites));
        if (stride == 0) {
          for (std::size_t i = 0;
               i < c.burst_length && anchor + i < sites; ++i) {
            allowed.set(anchor + i, true);
          }
          continue;
        }
        const std::size_t row = anchor / stride;
        const std::size_t col = anchor % stride;
        for (std::size_t r = 0; r < c.burst_rows; ++r) {
          for (std::size_t k = 0;
               k < c.burst_length && col + k < stride; ++k) {
            const std::size_t site = (row + r) * stride + col + k;
            if (site < sites) {
              allowed.set(site, true);
            }
          }
        }
      }
      for (std::size_t i = 0; i < sites; ++i) {
        if (mask.get(i) && !allowed.get(i)) {
          return "burst law: flipped site " + std::to_string(i) +
                 " lies outside every declared strike neighbourhood";
        }
      }
    }
  }

  // Remap law on a part manufactured from the case seed: the plan is
  // injective, and a feasible plan leaves zero logical defects — a
  // remapped placement never reads a known-defective site.
  {
    Rng rng(derive_seed({c.seed, 0x5e}));
    const DefectMap physical =
        DefectMap::manufacture(sites + sites / 8 + 1, 0.03, rng);
    const RemapPlan plan = remap_around_defects(physical, sites);
    if (plan.logical_to_physical.size() != sites) {
      return "remap law: plan covers " +
             std::to_string(plan.logical_to_physical.size()) +
             " logical sites, expected " + std::to_string(sites);
    }
    std::vector<char> seen(physical.sites(), 0);
    for (std::size_t i = 0; i < sites; ++i) {
      const std::uint32_t p = plan.logical_to_physical[i];
      if (p >= physical.sites()) {
        return "remap law: logical " + std::to_string(i) +
               " maps outside the physical site space";
      }
      if (seen[p] != 0) {
        return "remap law: physical site " + std::to_string(p) +
               " backs two logical sites (plan not injective)";
      }
      seen[p] = 1;
      if (plan.feasible && physical.is_defective(p)) {
        return "remap law: feasible plan reads known-defective physical "
               "site " + std::to_string(p);
      }
    }
    const DefectMap residual = remap_logical_defects(physical, plan);
    if (plan.feasible && residual.defect_count() != 0) {
      return "remap law: feasible plan left " +
             std::to_string(residual.defect_count()) + " logical defects";
    }
  }
  return std::nullopt;
}

/// Every contract of the family (oracles.hpp), each checked once against
/// one scalar-serial anatomy baseline. Every other engine pass runs at
/// the case's thread count, so one pass covers several contracts (tier ×
/// threads, plain sweep × threads).
std::optional<std::string> run_backend_case(const BackendCase& c) {
  const std::unique_ptr<IAlu> alu = make_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: unknown alu '" + c.alu + "'";
  }
  const std::optional<FaultCountPolicy> policy =
      serve::policy_from_name(c.policy);
  if (!policy.has_value()) {
    return "invalid case: unknown policy '" + c.policy + "'";
  }
  const std::optional<RateScheduleKind> kind =
      serve::schedule_from_name(c.schedule);
  if (!kind.has_value()) {
    return "invalid case: unknown schedule '" + c.schedule + "'";
  }
  const std::optional<InjectionScope> scope = serve::scope_from_name(c.scope);
  if (!scope.has_value()) {
    return "invalid case: unknown scope '" + c.scope + "'";
  }
  if (c.percents.empty() || c.trials < 1 || c.lanes < 1 ||
      c.lanes > kMaxBatchLanes || c.threads < 1 || c.burst_length < 1 ||
      c.burst_rows < 1) {
    return "invalid case: empty percents or knob out of range";
  }
  if (c.burst_rows > 1 && c.burst_row_stride == 0) {
    return "invalid case: burst_rows > 1 requires a row stride";
  }
  if (!(c.end_factor >= 0.0) || !(c.shape > 0.0)) {
    return "invalid case: end_factor must be >= 0 and shape > 0";
  }
  if (*scope == InjectionScope::kDatapathOnly &&
      (c.datapath_sites < 1 || c.datapath_sites > alu->fault_sites())) {
    return "invalid case: datapath_sites out of [1, fault_sites]";
  }

  SweepSpec spec;
  spec.percents = c.percents;
  spec.trials_per_workload = c.trials;
  spec.seed = c.seed;
  spec.policy = *policy;
  spec.burst_length = c.burst_length;
  spec.scope = *scope;
  spec.datapath_sites =
      *scope == InjectionScope::kDatapathOnly ? c.datapath_sites : 0;
  spec.scenario.schedule.kind = *kind;
  spec.scenario.schedule.end_factor = c.end_factor;
  spec.scenario.schedule.shape = c.shape;
  spec.scenario.burst_rows = c.burst_rows;
  spec.scenario.burst_row_stride = c.burst_row_stride;

  if (*kind != RateScheduleKind::kConstant ||
      *policy == FaultCountPolicy::kBurst) {
    if (std::optional<std::string> msg =
            scenario_laws(c, *alu, spec.scenario.schedule)) {
      return msg;
    }
  }

  const std::vector<std::vector<Instruction>> streams =
      paper_streams(c.seed);
  const auto engine = [](unsigned threads, unsigned lanes) {
    ParallelConfig par;
    par.threads = threads;
    par.batch_lanes = lanes;
    return TrialEngine(par);
  };
  const TrialEngine scalar = engine(c.threads, 0);
  const TrialEngine wide = engine(c.threads, c.lanes);
  const std::string at = "@" + std::to_string(c.threads) + "-threads";
  const std::string wide_at = "@" + std::to_string(c.lanes) + "-lanes" + at;

  const SweepAnatomy base = engine(1, 0).sweep_anatomy(*alu, streams, spec);
  if (std::optional<std::string> msg = compare_anatomy(
          base, scalar.sweep_anatomy(*alu, streams, spec), "scalar" + at)) {
    return msg;
  }
  // The scalar plain sweep. An i.i.d.-degenerate scenario IS today's
  // fault model, so when the case carries one that differs from the
  // default, this pass runs the default scenario instead and the same
  // comparison checks both contracts.
  SweepSpec plain = spec;
  std::string plain_name = "scalar-sweep" + at;
  if (spec.scenario != FaultScenario{} && spec.scenario.is_iid() &&
      spec.scenario.burst_row_stride == 0) {
    plain.scenario = FaultScenario{};
    plain_name += " (i.i.d.-degenerate scenario as the default)";
  }
  if (std::optional<std::string> msg = compare_points(
          base.points, scalar.sweep(*alu, streams, plain), plain_name)) {
    return msg;
  }
  // Each tier twice: with the sink, and without it, where the readers
  // decode only the addressed bit's share.
  for (const simd::SimdTier tier :
       {simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
        simd::SimdTier::kAvx512}) {
    if (!simd::tier_supported(tier)) {
      continue;
    }
    const simd::ScopedTierOverride forced(tier);
    const std::string tier_name(simd::tier_name(tier));
    if (std::optional<std::string> msg = compare_anatomy(
            base, wide.sweep_anatomy(*alu, streams, spec),
            "wide-" + tier_name + wide_at)) {
      return msg;
    }
    if (std::optional<std::string> msg = compare_points(
            base.points, wide.sweep(*alu, streams, spec),
            "wide-sweep-" + tier_name + wide_at)) {
      return msg;
    }
  }
  return std::nullopt;
}

std::vector<BackendCase> shrink_backend_case(const BackendCase& c) {
  std::vector<BackendCase> out;
  for (std::size_t i = 0; c.percents.size() > 1 && i < c.percents.size();
       ++i) {
    BackendCase& s = out.emplace_back(c);
    s.percents.erase(s.percents.begin() + static_cast<std::ptrdiff_t>(i));
  }
  // One trial, two (the least a schedule can ramp over), then the
  // smallest group that spills past the first lane word.
  for (const int t : {1, 2, 65}) {
    if (c.trials > t) {
      out.emplace_back(c).trials = t;
    }
  }
  if (c.policy != "round") {
    BackendCase& s = out.emplace_back(c);
    s.policy = "round";
    s.burst_length = 1;
    s.burst_rows = 1;
    s.burst_row_stride = 0;
  }
  if (c.burst_row_stride > 0) {
    BackendCase& s = out.emplace_back(c);
    s.burst_rows = 1;
    s.burst_row_stride = 0;
  }
  if (c.scope != "all") {
    BackendCase& s = out.emplace_back(c);
    s.scope = "all";
    s.datapath_sites = 0;
  }
  if (c.schedule != "constant") {
    BackendCase& s = out.emplace_back(c);
    s.schedule = "constant";
    s.end_factor = 1.0;
    s.shape = 1.0;
  }
  if (c.end_factor != 1.0) {
    out.emplace_back(c).end_factor = 1.0;
  }
  // Multi-word layouts first shrink to the single-word substrate, only
  // then all the way to one lane.
  if (c.lanes > 64) {
    out.emplace_back(c).lanes = 64;
  }
  if (c.lanes > 1) {
    out.emplace_back(c).lanes = 1;
  }
  if (c.threads > 2) {
    out.emplace_back(c).threads = 2;
  }
  return out;
}

// ------------------------------------------------------- alu-vs-cmos

constexpr const char* kAluName = "alu-vs-cmos";

struct AluInstr {
  Opcode op = Opcode::kAnd;
  std::uint8_t a = 0;
  std::uint8_t b = 0;
};

struct AluCase {
  std::string alu;
  std::vector<AluInstr> instrs;
};

/// ALU construction (especially the space-redundant variants) is the
/// expensive part of an alu-vs-cmos case, and the shrinker re-runs the
/// same ALU dozens of times — so instances are cached per name.
const IAlu* cached_alu(const std::string& name) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<IAlu>> cache;
  const std::scoped_lock lock(mu);
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, make_alu(name)).first;
  }
  return it->second.get();
}

AluCase generate_alu_case(Gen& g) {
  const std::vector<AluSpec>& specs = all_specs();
  AluCase c;
  c.alu = specs[g.below(specs.size())].name;
  const std::size_t n = g.length(1, 32);
  c.instrs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    AluInstr instr;
    instr.op = kAllOpcodes[g.below(4)];
    instr.a = g.byte();
    instr.b = g.byte();
    c.instrs.push_back(instr);
  }
  return c;
}

std::optional<std::string> run_alu_case(const AluCase& c) {
  const IAlu* alu = cached_alu(c.alu);
  if (alu == nullptr) {
    return "invalid case: unknown alu '" + c.alu + "'";
  }
  static const CmosCoreAlu cmos;
  for (std::size_t i = 0; i < c.instrs.size(); ++i) {
    const AluInstr& in = c.instrs[i];
    const std::uint8_t golden = golden_alu(in.op, in.a, in.b);
    const std::uint8_t gate = cmos.eval(in.op, in.a, in.b, {}, nullptr);
    const AluOutput out = alu->compute(in.op, in.a, in.b, {}, nullptr);
    std::ostringstream os;
    os << "instr " << i << " (" << opcode_name(in.op) << " "
       << int{in.a} << ", " << int{in.b} << "): ";
    if (gate != golden) {
      os << "cmos netlist " << int{gate} << " != golden_alu "
         << int{golden};
      return os.str();
    }
    if (out.value != golden) {
      os << c.alu << " value " << int{out.value} << " != golden_alu "
         << int{golden} << " under zero faults";
      return os.str();
    }
    if (!out.valid) {
      os << c.alu << " reported invalid result under zero faults";
      return os.str();
    }
    if (out.disagreement) {
      os << c.alu << " reported replica disagreement under zero faults";
      return os.str();
    }
  }
  return std::nullopt;
}

std::string alu_case_json(const AluCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kAluName << "\", \"alu\": \""
     << json_escape(c.alu) << "\", \"instrs\": [";
  for (std::size_t i = 0; i < c.instrs.size(); ++i) {
    const AluInstr& in = c.instrs[i];
    os << (i == 0 ? "" : ", ") << "[\"" << opcode_name(in.op) << "\", "
       << int{in.a} << ", " << int{in.b} << "]";
  }
  os << "]}";
  return os.str();
}

std::optional<AluCase> alu_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kAluName)) {
    return std::nullopt;
  }
  const JsonValue* alu = require(doc, "alu", JsonValue::Kind::kString);
  const JsonValue* instrs = require(doc, "instrs", JsonValue::Kind::kArray);
  if (alu == nullptr || instrs == nullptr) {
    return std::nullopt;
  }
  AluCase c;
  c.alu = alu->as_string();
  for (const JsonValue& triple : instrs->items()) {
    if (triple.kind() != JsonValue::Kind::kArray ||
        triple.items().size() != 3) {
      return std::nullopt;
    }
    const std::vector<JsonValue>& t = triple.items();
    if (!t[0].is_string() || !t[1].is_number() || !t[2].is_number()) {
      return std::nullopt;
    }
    const std::optional<Opcode> op = opcode_by_name(t[0].as_string());
    const std::optional<std::uint64_t> a = t[1].as_u64();
    const std::optional<std::uint64_t> b = t[2].as_u64();
    if (!op.has_value() || !a.has_value() || *a > 255 || !b.has_value() ||
        *b > 255) {
      return std::nullopt;
    }
    c.instrs.push_back({*op, static_cast<std::uint8_t>(*a),
                        static_cast<std::uint8_t>(*b)});
  }
  return c;
}

std::vector<AluCase> shrink_alu_case(const AluCase& c) {
  std::vector<AluCase> out;
  const std::size_t n = c.instrs.size();
  // Most aggressive first: halves, then single drops, then operand zeroing.
  if (n > 1) {
    out.emplace_back(c).instrs.resize(n / 2);
    AluCase& second = out.emplace_back(c);
    second.instrs.erase(second.instrs.begin(),
                        second.instrs.begin() +
                            static_cast<std::ptrdiff_t>(n / 2));
    for (std::size_t i = 0; i < n; ++i) {
      AluCase& s = out.emplace_back(c);
      s.instrs.erase(s.instrs.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (c.instrs[i].a != 0) {
      out.emplace_back(c).instrs[i].a = 0;
    }
    if (c.instrs[i].b != 0) {
      out.emplace_back(c).instrs[i].b = 0;
    }
  }
  return out;
}

// ----------------------------------------------------- decode-t-error

constexpr const char* kDecodeName = "decode-t-error";

/// For the three information codes, `data_bits` is the word width and
/// `flips` are stored-bit positions in [data | checks] order. For the
/// TMR layouts, `data_bits` is the (power-of-two) table size and `flips`
/// index the triplicated store: kTmr keeps the copies as three blocks
/// (entry = pos % n), kTmrInterleaved keeps the three copies of each
/// entry adjacent (entry = pos / 3).
struct DecodeCase {
  std::string code;  // hamming | hsiao | rs | tmr | tmr-interleaved
  std::size_t data_bits = 1;
  std::string data;  // MSB-first bit string, length data_bits
  std::vector<std::size_t> flips;
};

const char* hamming_status_name(HammingStatus s) {
  switch (s) {
    case HammingStatus::kNoError:
      return "kNoError";
    case HammingStatus::kCorrected:
      return "kCorrected";
    case HammingStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

const char* hsiao_status_name(HsiaoStatus s) {
  switch (s) {
    case HsiaoStatus::kNoError:
      return "kNoError";
    case HsiaoStatus::kCorrected:
      return "kCorrected";
    case HsiaoStatus::kDoubleDetected:
      return "kDoubleDetected";
    case HsiaoStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

const char* rs_status_name(RsStatus s) {
  switch (s) {
    case RsStatus::kNoError:
      return "kNoError";
    case RsStatus::kCorrected:
      return "kCorrected";
    case RsStatus::kUncorrectable:
      return "kUncorrectable";
  }
  return "?";
}

std::string flips_string(const std::vector<std::size_t>& flips) {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < flips.size(); ++i) {
    os << (i == 0 ? "" : ", ") << flips[i];
  }
  os << "]";
  return os.str();
}

/// Fills `data` with `bits` random bits (bits <= 64 by construction).
std::string random_word(Gen& g, std::size_t bits) {
  BitVec v(bits);
  v.deposit(0, bits, g.u64());
  return v.to_string();
}

DecodeCase generate_decode_case(Gen& g) {
  DecodeCase c;
  c.code = g.pick({std::string("hamming"), std::string("hsiao"),
                   std::string("rs"), std::string("tmr"),
                   std::string("tmr-interleaved")});
  if (c.code == "hamming") {
    c.data_bits = g.length(1, 57);
    const HammingCode code(c.data_bits);
    if (g.in_range(0, 1) == 1) {
      c.flips.push_back(g.below(code.codeword_bits()));
    }
  } else if (c.code == "hsiao") {
    c.data_bits = g.length(1, 57);
    const HsiaoCode code(c.data_bits);
    const std::size_t n_flips = g.in_range(0, 2);
    for (std::uint64_t p : g.distinct_below(code.codeword_bits(), n_flips)) {
      c.flips.push_back(static_cast<std::size_t>(p));
    }
  } else if (c.code == "rs") {
    c.data_bits = 4 * g.length(1, 13);
    const std::size_t symbols = c.data_bits / 4 + 2;
    const std::size_t n_flips = g.in_range(0, 4);
    if (n_flips > 0) {
      // All flips inside ONE codeword symbol: parity symbols s in {0, 1}
      // live at check bits [4s, 4s+4) (stored positions data_bits + ...),
      // data symbol i at data bits [4i, 4i+4).
      const std::size_t s = g.below(symbols);
      for (std::uint64_t off : g.distinct_below(4, n_flips)) {
        const std::size_t bit = static_cast<std::size_t>(off);
        c.flips.push_back(s < 2 ? c.data_bits + 4 * s + bit
                                : 4 * (s - 2) + bit);
      }
    }
  } else {
    const int k = static_cast<int>(g.length(1, kMaxLutInputs));
    c.data_bits = std::size_t{1} << k;
    const std::size_t n = c.data_bits;
    const std::size_t n_flips = g.length(0, std::min<std::size_t>(n, 6));
    const bool interleaved = c.code == "tmr-interleaved";
    for (std::uint64_t entry : g.distinct_below(n, n_flips)) {
      const std::size_t copy = g.below(3);
      c.flips.push_back(interleaved
                            ? static_cast<std::size_t>(entry) * 3 + copy
                            : copy * n + static_cast<std::size_t>(entry));
    }
  }
  c.data = random_word(g, c.data_bits);
  return c;
}

std::optional<std::string> run_info_code_case(const DecodeCase& c) {
  std::unique_ptr<HammingCode> hamming;
  std::unique_ptr<HsiaoCode> hsiao;
  std::unique_ptr<Rs16Code> rs;
  std::size_t check_bits = 0;
  std::size_t max_flips = 0;
  if (c.code == "hamming") {
    hamming = std::make_unique<HammingCode>(c.data_bits);
    check_bits = hamming->check_bits();
    max_flips = 1;
  } else if (c.code == "hsiao") {
    hsiao = std::make_unique<HsiaoCode>(c.data_bits);
    check_bits = hsiao->check_bits();
    max_flips = 2;
  } else {
    if (c.data_bits % 4 != 0 || c.data_bits < 4 || c.data_bits > 52) {
      return "invalid case: rs data_bits must be a multiple of 4 in [4,52]";
    }
    rs = std::make_unique<Rs16Code>(c.data_bits);
    check_bits = rs->check_bits();
    max_flips = 4;
  }
  if (c.flips.size() > max_flips) {
    return "invalid case: too many flips for " + c.code;
  }
  const std::size_t codeword_bits = c.data_bits + check_bits;
  for (std::size_t p : c.flips) {
    if (p >= codeword_bits) {
      return "invalid case: flip position out of codeword";
    }
  }
  if (rs != nullptr && !c.flips.empty()) {
    // All flips must hit one codeword symbol.
    auto symbol_of = [&](std::size_t p) {
      return p < c.data_bits ? 2 + p / 4 : (p - c.data_bits) / 4;
    };
    const std::size_t s0 = symbol_of(c.flips[0]);
    for (std::size_t p : c.flips) {
      if (symbol_of(p) != s0) {
        return "invalid case: rs flips span multiple symbols";
      }
    }
  }

  const BitVec data = BitVec::from_string(c.data);
  if (data.size() != c.data_bits) {
    return "invalid case: data string length != data_bits";
  }
  const BitVec checks = hamming != nullptr
                            ? hamming->generate_check_bits(data)
                        : hsiao != nullptr
                            ? hsiao->generate_check_bits(data)
                            : rs->generate_check_bits(data);

  BitVec faulted_data = data;
  BitVec faulted_checks = checks;
  for (std::size_t p : c.flips) {
    if (p < c.data_bits) {
      faulted_data.flip(p);
    } else {
      faulted_checks.flip(p - c.data_bits);
    }
  }
  const BitVec pre_decode_data = faulted_data;

  std::ostringstream os;
  os << c.code << "(" << c.data_bits << ") data=" << c.data
     << " flips=" << flips_string(c.flips) << ": ";
  if (hamming != nullptr) {
    const HammingStatus st =
        hamming->detect_and_correct(faulted_data, faulted_checks);
    const HammingStatus want = c.flips.empty() ? HammingStatus::kNoError
                                               : HammingStatus::kCorrected;
    if (st != want) {
      os << "status " << hamming_status_name(st) << ", expected "
         << hamming_status_name(want);
      return os.str();
    }
    if (!(faulted_data == data)) {
      os << "data not restored after <=1-bit error: got "
         << faulted_data.to_string();
      return os.str();
    }
  } else if (hsiao != nullptr) {
    const HsiaoStatus st =
        hsiao->detect_and_correct(faulted_data, faulted_checks);
    const HsiaoStatus want = c.flips.empty() ? HsiaoStatus::kNoError
                             : c.flips.size() == 1
                                 ? HsiaoStatus::kCorrected
                                 : HsiaoStatus::kDoubleDetected;
    if (st != want) {
      os << "status " << hsiao_status_name(st) << ", expected "
         << hsiao_status_name(want);
      return os.str();
    }
    if (c.flips.size() <= 1) {
      if (!(faulted_data == data)) {
        os << "data not restored after <=1-bit error: got "
           << faulted_data.to_string();
        return os.str();
      }
    } else if (!(faulted_data == pre_decode_data)) {
      // SEC-DED contract: a detected double must never be "corrected".
      os << "decoder modified data on a detected double error: got "
         << faulted_data.to_string();
      return os.str();
    }
  } else {
    const RsStatus st = rs->detect_and_correct(faulted_data, faulted_checks);
    const RsStatus want =
        c.flips.empty() ? RsStatus::kNoError : RsStatus::kCorrected;
    if (st != want) {
      os << "status " << rs_status_name(st) << ", expected "
         << rs_status_name(want);
      return os.str();
    }
    if (!(faulted_data == data)) {
      os << "data not restored after single-symbol error: got "
         << faulted_data.to_string();
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_tmr_case(const DecodeCase& c) {
  const std::size_t n = c.data_bits;
  if (n < 2 || (n & (n - 1)) != 0 ||
      n > (std::size_t{1} << kMaxLutInputs)) {
    return "invalid case: tmr table size must be a power of two in [2, " +
           std::to_string(std::size_t{1} << kMaxLutInputs) + "]";
  }
  const bool interleaved = c.code == "tmr-interleaved";
  std::vector<bool> entry_hit(n, false);
  for (std::size_t p : c.flips) {
    if (p >= 3 * n) {
      return "invalid case: flip position out of the triplicated store";
    }
    const std::size_t entry = interleaved ? p / 3 : p % n;
    if (entry_hit[entry]) {
      return "invalid case: two flips on copies of the same entry";
    }
    entry_hit[entry] = true;
  }
  const BitVec tt = BitVec::from_string(c.data);
  if (tt.size() != n) {
    return "invalid case: data string length != table size";
  }
  const CodedLut lut(tt, interleaved ? LutCoding::kTmrInterleaved
                                     : LutCoding::kTmr);
  BitVec mask(lut.fault_sites());
  for (std::size_t p : c.flips) {
    mask.flip(p);
  }
  std::uint64_t disagreements = 0;
  for (std::size_t addr = 0; addr < n; ++addr) {
    const bool got = lut.read(static_cast<std::uint32_t>(addr),
                              MaskView(mask, 0, mask.size()), nullptr,
                              &disagreements);
    if (got != tt.get(addr)) {
      std::ostringstream os;
      os << c.code << "(" << n << ") data=" << c.data
         << " flips=" << flips_string(c.flips) << ": majority vote at addr "
         << addr << " returned " << got << ", golden " << tt.get(addr)
         << " (one faulted copy must never win)";
      return os.str();
    }
  }
  if (disagreements != c.flips.size()) {
    std::ostringstream os;
    os << c.code << "(" << n << ") flips=" << flips_string(c.flips)
       << ": tmr_disagreements " << disagreements
       << " over one full read pass, expected one per flipped entry ("
       << c.flips.size() << ")";
    return os.str();
  }
  return std::nullopt;
}

std::optional<std::string> run_decode_case(const DecodeCase& c) {
  if (c.code == "tmr" || c.code == "tmr-interleaved") {
    return run_tmr_case(c);
  }
  if (c.code == "hamming" || c.code == "hsiao" || c.code == "rs") {
    return run_info_code_case(c);
  }
  return "invalid case: unknown code '" + c.code + "'";
}

std::string decode_case_json(const DecodeCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kDecodeName << "\", \"code\": \"" << c.code
     << "\", \"data_bits\": " << c.data_bits << ", \"data\": \"" << c.data
     << "\", \"flips\": [";
  for (std::size_t i = 0; i < c.flips.size(); ++i) {
    os << (i == 0 ? "" : ", ") << c.flips[i];
  }
  os << "]}";
  return os.str();
}

std::optional<DecodeCase> decode_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kDecodeName)) {
    return std::nullopt;
  }
  const JsonValue* code = require(doc, "code", JsonValue::Kind::kString);
  const JsonValue* bits =
      require(doc, "data_bits", JsonValue::Kind::kNumber);
  const JsonValue* data = require(doc, "data", JsonValue::Kind::kString);
  const JsonValue* flips = require(doc, "flips", JsonValue::Kind::kArray);
  if (code == nullptr || bits == nullptr || data == nullptr ||
      flips == nullptr) {
    return std::nullopt;
  }
  DecodeCase c;
  c.code = code->as_string();
  const std::optional<std::uint64_t> n = bits->as_u64();
  if (!n.has_value() || *n == 0 || *n > 4096) {
    return std::nullopt;
  }
  c.data_bits = static_cast<std::size_t>(*n);
  c.data = data->as_string();
  for (char ch : c.data) {
    if (ch != '0' && ch != '1') {
      return std::nullopt;
    }
  }
  for (const JsonValue& f : flips->items()) {
    const std::optional<std::uint64_t> p = f.as_u64();
    if (!p.has_value()) {
      return std::nullopt;
    }
    c.flips.push_back(static_cast<std::size_t>(*p));
  }
  return c;
}

std::vector<DecodeCase> shrink_decode_case(const DecodeCase& c) {
  std::vector<DecodeCase> out;
  for (std::size_t i = 0; i < c.flips.size(); ++i) {
    DecodeCase& s = out.emplace_back(c);
    s.flips.erase(s.flips.begin() + static_cast<std::ptrdiff_t>(i));
  }
  if (c.data.find('1') != std::string::npos) {
    out.emplace_back(c).data.assign(c.data.size(), '0');
  }
  return out;
}

// ------------------------------------------- pipeline-differential

constexpr const char* kPipelineName = "pipeline-differential";

/// A generated cell program checked against the pipelined cell's own
/// architectural contracts. Mode "program" drives the 4-deep
/// CellPipeline: under zero faults every instruction must retire, in
/// program order, with the fault-free reference value; flipping
/// forwarding must change timing only (never a retired value, never
/// making the forwarded run slower); and a faulted run replayed after
/// reset() must be bit-identical, counters included. Mode "legacy"
/// drives the full ProcessorCell flit/mode machinery: a zero-fault cell
/// must round-trip every instruction packet to a result packet carrying
/// golden_alu, and two identically-configured faulted cells fed the same
/// flits must emit identical packets.
struct PipelineCase {
  std::string mode;  // legacy | program
  std::string alu;   // execute-stage ALU (program mode only)
  std::size_t length = 1;
  std::uint64_t seed = 0;
  std::size_t registers = 8;
  bool forwarding = true;
  double fetch_percent = 0.0;
  double decode_percent = 0.0;
  double execute_percent = 0.0;
  double writeback_percent = 0.0;
};

PipelineCase generate_pipeline_case(Gen& g) {
  PipelineCase c;
  c.mode = g.pick({std::string("legacy"), std::string("program")});
  const std::vector<AluSpec>& specs = all_specs();
  c.alu = specs[g.below(specs.size())].name;
  // Legacy programs must fit the cell's 32-word memory in one shift-in.
  c.length = g.length(1, c.mode == "legacy" ? 16 : 48);
  c.seed = g.u64();
  c.registers = static_cast<std::size_t>(g.in_range(2, 8));
  c.forwarding = g.boolean();
  const auto rate = [&g]() -> double {
    return kPercentPool[g.below(kPercentPool.size())];
  };
  if (g.boolean(0.7)) {
    c.fetch_percent = rate();
    c.decode_percent = rate();
    c.execute_percent = rate();
    c.writeback_percent = rate();
  }
  return c;
}

std::string pipeline_case_json(const PipelineCase& c) {
  std::ostringstream os;
  os << "{\"family\": \"" << kPipelineName << "\", \"mode\": \"" << c.mode
     << "\", \"alu\": \"" << json_escape(c.alu)
     << "\", \"length\": " << c.length << ", \"seed\": " << c.seed
     << ", \"registers\": " << c.registers << ", \"forwarding\": "
     << (c.forwarding ? "true" : "false")
     << ", \"fetch_percent\": " << json_double(c.fetch_percent)
     << ", \"decode_percent\": " << json_double(c.decode_percent)
     << ", \"execute_percent\": " << json_double(c.execute_percent)
     << ", \"writeback_percent\": " << json_double(c.writeback_percent)
     << "}";
  return os.str();
}

std::optional<PipelineCase> pipeline_case_from_json(const JsonValue& doc) {
  if (!family_matches(doc, kPipelineName)) {
    return std::nullopt;
  }
  FieldReader r(doc);
  PipelineCase c;
  r.text("mode", c.mode, true);
  r.text("alu", c.alu, true);
  r.number("length", c.length, true);
  r.number("seed", c.seed, true);
  r.number("registers", c.registers, true);
  r.flag("forwarding", c.forwarding, true);
  r.number("fetch_percent", c.fetch_percent, true);
  r.number("decode_percent", c.decode_percent, true);
  r.number("execute_percent", c.execute_percent, true);
  r.number("writeback_percent", c.writeback_percent, true);
  return r.ok() ? std::optional<PipelineCase>(c) : std::nullopt;
}

/// The generated NBXS program of a pipeline case — a pure function of
/// the case seed, so replayed cases rebuild it exactly.
std::vector<Instruction> pipeline_case_program(const PipelineCase& c) {
  Rng rng(derive_seed({c.seed, fnv1a64("pipeline-case-program")}));
  return random_stream(c.length, rng);
}

std::optional<std::string> retired_mismatch(
    const std::vector<RetiredOp>& base, const std::vector<RetiredOp>& got,
    const char* variant) {
  if (got.size() != base.size()) {
    return std::string(variant) + " retired " + std::to_string(got.size()) +
           " instructions, baseline " + std::to_string(base.size());
  }
  for (std::size_t i = 0; i < base.size(); ++i) {
    if (got[i].index != base[i].index ||
        got[i].instr_id != base[i].instr_id ||
        got[i].value != base[i].value) {
      std::ostringstream os;
      os << variant << " diverges at retirement " << i << ": (index "
         << got[i].index << ", id " << got[i].instr_id << ", value "
         << int{got[i].value} << ") != baseline (index " << base[i].index
         << ", id " << base[i].instr_id << ", value "
         << int{base[i].value} << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_program_pipeline_case(const PipelineCase& c) {
  const std::vector<Instruction> program = pipeline_case_program(c);

  PipelineConfig ideal;
  ideal.registers = c.registers;
  ideal.forwarding = c.forwarding;
  ideal.execute_alu = c.alu;
  ideal.seed = c.seed;
  CellPipeline pipe(ideal, CellId{1, 2});
  if (!pipe.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  const PipelineRunResult res = pipe.run();
  std::ostringstream os;
  os << "program[" << program.size() << "] alu=" << c.alu << " regs="
     << c.registers << (c.forwarding ? " fwd" : " no-fwd") << ": ";
  if (!res.completed) {
    os << "zero-fault run hit the cycle bound with work in flight";
    return os.str();
  }
  const std::vector<std::uint8_t> ref =
      CellPipeline::reference_results(program, c.registers);
  if (pipe.retired().size() != program.size()) {
    os << "zero-fault run retired " << pipe.retired().size() << " of "
       << program.size() << " instructions";
    return os.str();
  }
  for (std::size_t i = 0; i < program.size(); ++i) {
    const RetiredOp& r = pipe.retired()[i];
    if (r.index != i || r.value != ref[i]) {
      os << "zero-fault retirement " << i << " is (index " << r.index
         << ", value " << int{r.value} << "), reference (index " << i
         << ", value " << int{ref[i]} << ")";
      return os.str();
    }
  }
  if (res.correct != program.size() || res.percent_correct != 100.0) {
    os << "zero-fault scoring counted " << res.correct << "/"
       << program.size() << " correct";
    return os.str();
  }

  // Forwarding is a timing optimisation only: flipping it must not move
  // any retired value, and the forwarded schedule never runs slower.
  PipelineConfig flipped = ideal;
  flipped.forwarding = !ideal.forwarding;
  CellPipeline other(flipped, CellId{1, 2});
  if (!other.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  (void)other.run();
  if (std::optional<std::string> msg = retired_mismatch(
          pipe.retired(), other.retired(), "forwarding-flipped")) {
    os << *msg;
    return os.str();
  }
  const std::uint64_t fwd_cycles =
      ideal.forwarding ? pipe.counters().cycles : other.counters().cycles;
  const std::uint64_t stall_cycles =
      ideal.forwarding ? other.counters().cycles : pipe.counters().cycles;
  if (fwd_cycles > stall_cycles) {
    os << "forwarding ran " << fwd_cycles << " cycles, stalling only "
       << stall_cycles;
    return os.str();
  }

  // Faulted determinism: reset() re-arms the per-stage RNG streams, so
  // an identical re-run must be bit-identical — retired list, per-stage
  // fault counters, everything.
  PipelineConfig faulted = ideal;
  faulted.fetch.fault_percent = c.fetch_percent;
  faulted.decode.fault_percent = c.decode_percent;
  faulted.execute.fault_percent = c.execute_percent;
  faulted.writeback.fault_percent = c.writeback_percent;
  CellPipeline noisy(faulted, CellId{1, 2});
  if (!noisy.load(program)) {
    return "invalid case: unknown execute alu '" + c.alu + "'";
  }
  (void)noisy.run();
  const std::vector<RetiredOp> first = noisy.retired();
  const obs::PipelineCounters counters = noisy.counters();
  noisy.reset();
  (void)noisy.run();
  if (std::optional<std::string> msg = retired_mismatch(
          first, noisy.retired(), "faulted-replay")) {
    os << *msg;
    return os.str();
  }
  if (!(noisy.counters() == counters)) {
    os << "faulted replay moved the pipeline counters";
    return os.str();
  }
  return std::nullopt;
}

/// Shift-in → compute → shift-out round trip of one legacy cell:
/// returns the result packets it emits toward the control processor.
std::vector<Packet> run_legacy_cell(const CellConfig& cfg,
                                    const std::vector<Instruction>& program) {
  ProcessorCell cell(CellId{0, 0}, cfg);
  cell.set_mode(CellMode::kShiftIn);
  for (const Instruction& in : program) {
    Packet p;
    p.kind = PacketKind::kInstruction;
    p.dest = CellId{0, 0};
    p.instr_id = in.id;
    p.op = in.op;
    p.operand1 = in.a;
    p.operand2 = in.b;
    for (std::uint8_t f : encode_packet_flits(p)) {
      cell.receive_flit(Port::kTop, f);
      cell.step();
    }
  }
  cell.set_mode(CellMode::kCompute);
  for (std::size_t i = 0; i < cell.memory().capacity() + 8; ++i) {
    cell.step();
  }
  cell.set_mode(CellMode::kShiftOut);
  PacketAssembler rx;
  std::vector<Packet> results;
  const std::size_t budget = (program.size() + 2) * (kPacketFlits + 2);
  for (std::size_t i = 0; i < budget; ++i) {
    cell.step();
    if (const std::optional<std::uint8_t> f = cell.pop_output(Port::kTop)) {
      if (const std::optional<Packet> p = rx.push(*f)) {
        results.push_back(*p);
      }
    }
  }
  return results;
}

std::optional<std::string> run_legacy_pipeline_case(const PipelineCase& c) {
  const std::vector<Instruction> program = pipeline_case_program(c);

  // Zero faults: every instruction packet round-trips to a result packet
  // carrying the behavioural golden, in storage order.
  CellConfig ideal;
  ideal.seed = c.seed;
  const std::vector<Packet> clean = run_legacy_cell(ideal, program);
  std::ostringstream os;
  os << "legacy[" << program.size() << "]: ";
  if (clean.size() != program.size()) {
    os << "zero-fault cell emitted " << clean.size() << " results for "
       << program.size() << " instructions";
    return os.str();
  }
  for (std::size_t i = 0; i < program.size(); ++i) {
    const Instruction& in = program[i];
    const Packet& out = clean[i];
    if (out.kind != PacketKind::kResult || out.instr_id != in.id ||
        out.result != golden_alu(in.op, in.a, in.b)) {
      os << "instr " << i << " (" << opcode_name(in.op) << " " << int{in.a}
         << ", " << int{in.b} << "): result packet (id " << out.instr_id
         << ", value " << int{out.result} << ") != golden (id " << in.id
         << ", value " << int{golden_alu(in.op, in.a, in.b)} << ")";
      return os.str();
    }
  }

  // Faulted determinism: two identically-configured cells fed the same
  // flits must emit identical packets — the degenerate 1-deep pipeline
  // draws its fault masks from the cell seed alone.
  CellConfig faulted = ideal;
  faulted.alu_fault_percent = c.execute_percent;
  faulted.memory_upsets_per_cycle = c.fetch_percent / 100.0;
  const std::vector<Packet> a = run_legacy_cell(faulted, program);
  const std::vector<Packet> b = run_legacy_cell(faulted, program);
  if (a.size() != b.size()) {
    os << "faulted twin cells emitted " << a.size() << " vs " << b.size()
       << " packets";
    return os.str();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) {
      os << "faulted twin cells diverge at packet " << i << " (id "
         << a[i].instr_id << " vs " << b[i].instr_id << ", value "
         << int{a[i].result} << " vs " << int{b[i].result} << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

std::optional<std::string> run_pipeline_case(const PipelineCase& c) {
  if (c.length < 1 || (c.mode == "legacy" && c.length > 16) ||
      c.length > 4096) {
    return "invalid case: length out of range for mode '" + c.mode + "'";
  }
  if (c.registers < 2 || c.registers > 8) {
    return "invalid case: registers out of [2, 8]";
  }
  const double rates[] = {c.fetch_percent, c.decode_percent,
                          c.execute_percent, c.writeback_percent};
  for (const double r : rates) {
    if (!(r >= 0.0) || r > 100.0) {
      return "invalid case: stage percent out of [0, 100]";
    }
  }
  if (c.mode == "program") {
    return run_program_pipeline_case(c);
  }
  if (c.mode == "legacy") {
    return run_legacy_pipeline_case(c);
  }
  return "invalid case: unknown mode '" + c.mode + "'";
}

std::vector<PipelineCase> shrink_pipeline_case(const PipelineCase& c) {
  std::vector<PipelineCase> out;
  if (c.length > 1) {
    out.emplace_back(c).length = c.length / 2;
    out.emplace_back(c).length = 1;
  }
  const auto zero = [&out, &c](double PipelineCase::* field) {
    if (c.*field != 0.0) {
      out.emplace_back(c).*field = 0.0;
    }
  };
  zero(&PipelineCase::fetch_percent);
  zero(&PipelineCase::decode_percent);
  zero(&PipelineCase::execute_percent);
  zero(&PipelineCase::writeback_percent);
  if (!c.forwarding) {
    out.emplace_back(c).forwarding = true;
  }
  if (c.registers != 8) {
    out.emplace_back(c).registers = 8;
  }
  if (c.alu != "aluns") {
    out.emplace_back(c).alu = "aluns";
  }
  return out;
}

}  // namespace

Property backend_differential_property() {
  return Property::make(PropertyDef<BackendCase>{
      kBackendName, generate_backend_case, run_backend_case,
      shrink_backend_case, backend_case_json, backend_case_from_json});
}

Property alu_vs_cmos_property() {
  return Property::make(PropertyDef<AluCase>{
      kAluName, generate_alu_case, run_alu_case, shrink_alu_case,
      alu_case_json, alu_case_from_json});
}

Property decode_t_error_property() {
  return Property::make(PropertyDef<DecodeCase>{
      kDecodeName, generate_decode_case, run_decode_case,
      shrink_decode_case, decode_case_json, decode_case_from_json});
}

Property pipeline_differential_property() {
  return Property::make(PropertyDef<PipelineCase>{
      kPipelineName, generate_pipeline_case, run_pipeline_case,
      shrink_pipeline_case, pipeline_case_json, pipeline_case_from_json});
}

std::vector<Property> oracle_properties() {
  std::vector<Property> out;
  out.push_back(backend_differential_property());
  out.push_back(pipeline_differential_property());
  out.push_back(alu_vs_cmos_property());
  out.push_back(decode_t_error_property());
  out.push_back(serve_differential_property());
  return out;
}

std::optional<Property> oracle_property_by_name(std::string_view name) {
  if (std::ranges::find(kAbsorbedNames, name) != kAbsorbedNames.end()) {
    name = kBackendName;
  }
  for (Property& p : oracle_properties()) {
    if (p.name() == name) {
      return std::move(p);
    }
  }
  return std::nullopt;
}

std::size_t default_smoke_cases(std::string_view property_name) {
  static const std::map<std::string_view, std::size_t> kDepths = {
      {kBackendName, 32}, {kPipelineName, 16}, {kAluName, 80},
      {kDecodeName, 120}, {"serve-differential", 12}};
  const auto it = kDepths.find(property_name);
  return it != kDepths.end() ? it->second : 50;
}

}  // namespace nbx::check
