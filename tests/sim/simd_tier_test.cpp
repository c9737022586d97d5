// simd_tier_test.cpp — forced-dispatch bit-identity per SIMD tier.
//
// The wide lane engine compiles its kernels once per dispatch tier
// (scalar / AVX2 / AVX-512) and picks one at runtime; the contract is
// that the pick is invisible in every number. These tests pin the tier
// through the NBX_SIMD_TIER environment variable (the user-facing knob)
// or simd::ScopedTierOverride (the programmatic one) and require:
//
//   * the batched seed golden (aluss @ 2%, seed 2026, 5 trials =
//     98.90625) holds verbatim on every tier, at one lane word (64), the
//     full eight-word width (512), and ragged lane counts whose groups
//     end in a partial lockstep mask block (1, 7, 9, 63, 65, 257, 511);
//   * the structural mirror evaluates every catalogued ALU word-parallel,
//     the gate-level TMR read paths as one shared netlist per hw core,
//     and refuses a structure it does not know;
//   * those gate-level reads are bit-identical to the scalar engine in a
//     group that spills past the first 64-lane word, on every tier.
//
// That every catalogued ALU decodes like the scalar engine on every
// tier and lane-word width, sink on and off, is the pinned backend
// table's (tests/check/backend_table_test.cpp).
//
// Tiers the binary or the CPU cannot run are GTEST_SKIPped (visible in
// the log), never silently passed: a green run on an AVX-512 machine
// certifies all three tiers, a green run elsewhere says which were
// exercised.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>

#include "alu/alu_factory.hpp"
#include "alu/module_alu.hpp"
#include "goldens.hpp"
#include "sim/experiment.hpp"
#include "simd/simd_dispatch.hpp"
#include "simd/wide_mirror.hpp"

namespace nbx {
namespace {

const goldens::ReferencePoint& kRef = goldens::kAlussAt2Pct;

// Pins NBX_SIMD_TIER for the scope of one test body and restores the
// previous value on exit, so tests cannot leak a tier into each other.
class EnvTierPin {
 public:
  explicit EnvTierPin(std::string_view tier) {
    const char* prev = std::getenv("NBX_SIMD_TIER");
    had_previous_ = prev != nullptr;
    if (had_previous_) {
      previous_ = prev;
    }
    setenv("NBX_SIMD_TIER", std::string(tier).c_str(), /*overwrite=*/1);
  }
  ~EnvTierPin() {
    if (had_previous_) {
      setenv("NBX_SIMD_TIER", previous_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv("NBX_SIMD_TIER");
    }
  }
  EnvTierPin(const EnvTierPin&) = delete;
  EnvTierPin& operator=(const EnvTierPin&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

void expect_golden_at_lanes(unsigned lanes) {
  const auto alu = make_alu(kRef.alu);
  const auto streams = paper_streams(kRef.seed);
  ParallelConfig par;
  par.batch_lanes = lanes;
  const DataPoint p = TrialEngine{par}.point(
      *alu, streams,
      {.percents = {kRef.fault_percent},
       .trials_per_workload = kRef.trials_per_workload, .seed = kRef.seed});
  // EXPECT_EQ, not DOUBLE_EQ: bit-identical is the contract.
  EXPECT_EQ(p.samples, kRef.samples) << "lanes=" << lanes;
  EXPECT_EQ(p.mean_percent_correct, kRef.mean_percent_correct)
      << "lanes=" << lanes;
  EXPECT_EQ(p.stddev, kRef.stddev) << "lanes=" << lanes;
  EXPECT_EQ(p.ci95, kRef.ci95) << "lanes=" << lanes;
}

// Forces `tier` through the environment variable (exercising the parse
// path users hit) and re-runs the pinned seed golden at a single lane
// word, at the full 512-lane width, and at ragged lane counts: one-lane
// groups, and every lane-word width with a group that stops inside a
// lockstep mask block.
void run_forced_tier_golden(simd::SimdTier tier) {
  if (!simd::tier_supported(tier)) {
    GTEST_SKIP() << "tier '" << simd::tier_name(tier)
                 << "' not compiled in or not supported by this CPU";
  }
  EnvTierPin pin(simd::tier_name(tier));
  ASSERT_EQ(simd::active_tier(), tier)
      << "NBX_SIMD_TIER pin did not take effect";
  for (const unsigned lanes : {64u, 512u, 1u, 7u, 9u, 63u, 65u, 257u, 511u}) {
    expect_golden_at_lanes(lanes);
  }
}

TEST(SimdTier, ScalarTierReproducesSeedGolden) {
  run_forced_tier_golden(simd::SimdTier::kScalar);
}

TEST(SimdTier, Avx2TierReproducesSeedGolden) {
  run_forced_tier_golden(simd::SimdTier::kAvx2);
}

TEST(SimdTier, Avx512TierReproducesSeedGolden) {
  run_forced_tier_golden(simd::SimdTier::kAvx512);
}

// Point-for-point and counter-for-counter equality with the scalar
// trial engine's anatomy sweep.
void expect_same_anatomy(const SweepAnatomy& base, const SweepAnatomy& wide,
                         const SweepSpec& spec, const std::string& where) {
  ASSERT_EQ(wide.points.size(), base.points.size()) << where;
  ASSERT_EQ(wide.metrics.size(), base.metrics.size()) << where;
  for (std::size_t i = 0; i < base.points.size(); ++i) {
    const std::string at = where + " percent=" +
                           std::to_string(spec.percents[i]);
    EXPECT_EQ(wide.points[i].mean_percent_correct,
              base.points[i].mean_percent_correct)
        << at;
    EXPECT_EQ(wide.points[i].stddev, base.points[i].stddev) << at;
    EXPECT_EQ(wide.points[i].ci95, base.points[i].ci95) << at;
    EXPECT_EQ(wide.points[i].samples, base.points[i].samples) << at;
    EXPECT_TRUE(wide.metrics[i] == base.metrics[i])
        << at << ": anatomy diverged";
  }
}

// Fault sites the mirror's mask segments cover: its cores, its voter,
// and a time-redundant module's 3 x 9 stored-result bits.
std::size_t mirrored_sites(const simd::WideMirror& m) {
  std::size_t sites = 0;
  for (const simd::WideMirror::Core& c : m.cores()) {
    sites += c.sites;
  }
  if (m.level() == simd::WideMirror::Level::kTime) {
    sites = 3 * sites + kTimeRedundancyStorageBits;
  }
  if (m.voter() != nullptr) {
    sites += m.voter()->sites;
  }
  return sites;
}

TEST(WideMirror, EveryCataloguedAluIsWordParallel) {
  for (const AluSpec& s : all_specs()) {
    const auto alu = make_alu(s.name);
    ASSERT_NE(alu, nullptr) << s.name;
    const auto mirror = simd::WideMirror::create(*alu);
    EXPECT_FALSE(mirror->cores().empty()) << s.name;
    EXPECT_EQ(mirrored_sites(*mirror), s.expected_sites) << s.name;
  }
}

TEST(WideMirror, GateLevelLutCoresShareOneReadPathNetlist) {
  std::size_t hw = 0;
  for (const AluSpec& s : all_specs()) {
    if (s.bit != BitLevel::kTmrHw) {
      continue;
    }
    ++hw;
    const auto alu = make_alu(s.name);
    ASSERT_NE(alu, nullptr) << s.name;
    const auto mirror = simd::WideMirror::create(*alu);
    for (const simd::WideMirror::Core& c : mirror->cores()) {
      EXPECT_EQ(c.kind, simd::WideMirror::PartKind::kHwLut) << s.name;
      ASSERT_NE(c.netlist, nullptr) << s.name;
      // 4 inverters + 16 minterms + 3 x (16 AND2 + OR16) + 5 majority.
      EXPECT_EQ(c.netlist->node_count(), 76u) << s.name;
      ASSERT_EQ(c.block.size(), 32u) << s.name;
      for (const simd::WideLut& t : c.block.luts()) {
        EXPECT_EQ(t.golden.size(), 16u) << s.name;
        EXPECT_EQ(t.sites, 48u + 76u) << s.name;
      }
    }
    EXPECT_EQ(mirrored_sites(*mirror), s.expected_sites) << s.name;
  }
  EXPECT_EQ(hw, 3u) << "alunhw, aluthw and alushw";
}

// A core type the mirror does not know: the wide engine has no per-lane
// path to run it on, so building its mirror must fail loudly.
class UnknownCore : public CoreAlu {
 public:
  [[nodiscard]] std::size_t fault_sites() const override { return 8; }
  [[nodiscard]] std::uint8_t eval(Opcode, std::uint8_t a, std::uint8_t,
                                  MaskView, obs::Counters*) const override {
    return a;
  }
};

TEST(WideMirror, UnknownCoreStructureThrows) {
  const SingleAlu alu("alunknown", std::make_unique<UnknownCore>());
  EXPECT_THROW((void)simd::WideMirror::create(alu), std::invalid_argument);
}

TEST(SimdTier, GateLevelMirrorLanesSpanTwoLaneWords) {
  // 65 trials in a 96-lane row: each workload's group puts its last
  // trial in lane 64, the first lane of the second word, so the hw
  // cores' netlist reads must fault, carry and score across the word
  // boundary. The backend-differential cases keep the hw ALUs inside
  // one word (the scalar oracle takes milliseconds per trial), so this
  // is their multi-word coverage.
  SweepSpec spec;
  spec.percents = {1.0};
  spec.trials_per_workload = 65;
  spec.seed = 20261017;
  const auto streams = paper_streams(spec.seed);
  ParallelConfig wide_cfg;
  wide_cfg.batch_lanes = 96;
  for (const std::string name : {"alunhw", "aluthw", "alushw"}) {
    const auto alu = make_alu(name);
    ASSERT_NE(alu, nullptr) << name;
    const SweepAnatomy base =
        TrialEngine(ParallelConfig{}).sweep_anatomy(*alu, streams, spec);
    for (const simd::SimdTier tier :
         {simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
          simd::SimdTier::kAvx512}) {
      if (!simd::tier_supported(tier)) {
        continue;
      }
      const simd::ScopedTierOverride forced(tier);
      expect_same_anatomy(
          base, TrialEngine(wide_cfg).sweep_anatomy(*alu, streams, spec),
          spec,
          name + " lanes=96 tier=" + std::string(simd::tier_name(tier)));
    }
  }
}

TEST(SimdTier, UnsupportedEnvRequestClampsDownNeverUp) {
  // Asking for a tier the machine cannot run must clamp to the best
  // supported tier at or below the request — and the result must still
  // be the pinned golden (dispatch never changes numbers).
  EnvTierPin pin("avx512");
  const simd::SimdTier active = simd::active_tier();
  EXPECT_TRUE(simd::tier_supported(active));
  EXPECT_LE(static_cast<int>(active),
            static_cast<int>(simd::SimdTier::kAvx512));
  expect_golden_at_lanes(64);
}

TEST(SimdTier, GarbageEnvValueFallsBackToBestTier) {
  EnvTierPin pin("not-a-tier");
  EXPECT_EQ(simd::active_tier(), simd::best_tier());
  expect_golden_at_lanes(64);
}

}  // namespace
}  // namespace nbx
