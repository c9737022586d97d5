// lockstep_mask_test.cpp — the wide engine's lockstep mask layer
// (LaneKernels::lockstep_masks), called directly on every SIMD tier.
//
// Under the i.i.d. counting policies a lane group's masks are drawn with
// the lanes' xoshiro256** states stepped together, a block of lanes at a
// time. The contract is the scalar one, lane by lane: each lane's mask
// and its generator's final state equal what MaskGenerator::generate
// leaves from the same start state, draw for draw.
//
// Lemire's slow path (low product < bound) is tested once per tile of
// Floyd steps, and a live lane that took it redraws its whole tile in
// scalar code. No real seed reaches it, so the cases are built here by
// inverting the generator's output scrambler and, to place the draw
// later in the mask, its state update:
//
//   * a first draw x = 0, whose low product 0 lies under 2^64 mod bound:
//     it must be rejected and drawn again;
//   * a first draw whose low product lands in [2^64 mod bound, bound):
//     it takes the slow path but is accepted on that first draw;
//   * x = 0 at steps 0, 31, 63, 64 and 129 of a 130-step mask: tile
//     starts, middles and ends, and a later tile, whatever tile length a
//     tier picks.
//
// Idle lanes of a ragged block start from x = 0 states as well: they
// must never write a bit, and never be redrawn (a redraw would step them
// further than the block's lockstep draws).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/batch_bitvec.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "simd/lane_engine.hpp"
#include "simd/simd_dispatch.hpp"

namespace nbx {
namespace {

using State = std::array<std::uint64_t, 4>;

/// The widest lockstep block any tier uses; idle slots of a ragged
/// block lie below the lane count rounded up to it.
constexpr unsigned kWidestBlock = 8;

/// Inverse of an odd number modulo 2^64 (Newton's iteration).
std::uint64_t inverse_mod_2_64(std::uint64_t a) {
  std::uint64_t inv = a;  // right in the low 3 bits for odd a
  for (int i = 0; i < 5; ++i) {
    inv *= 2 - a * inv;
  }
  return inv;
}

/// A xoshiro256** state whose next output is exactly `x`. The output is
/// rotl(s1 * 5, 7) * 9, so s1 = rotr(x * 9^-1, 7) * 5^-1; the other
/// three words come from `seed`.
State state_with_next_output(std::uint64_t x, std::uint64_t seed) {
  SplitMix64 sm(seed);
  State s{sm.next(), 0, sm.next(), sm.next()};
  s[1] = std::rotr(x * inverse_mod_2_64(9), 7) * inverse_mod_2_64(5);
  return s;
}

/// The state whose next() step leaves `s`: xoshiro256's state update
/// run backwards. Its one non-trivial part, s1 ^ (s1 << 17) = c, is
/// undone by c ^ (c << 17) ^ (c << 34) ^ (c << 51).
State step_back(const State& s) {
  const std::uint64_t e = std::rotr(s[3], 45);  // s3 ^ s1 before the step
  const std::uint64_t s0 = s[0] ^ e;
  const std::uint64_t c = s[1] ^ s[2];  // s1 ^ (s1 << 17)
  const std::uint64_t s1 = c ^ (c << 17) ^ (c << 34) ^ (c << 51);
  return {s0, s1, s[1] ^ s0 ^ s1, e ^ s1};
}

/// A state whose (steps + 1)-th next() output is 0.
State state_with_zero_at(std::size_t steps, std::uint64_t seed) {
  State s = state_with_next_output(0, seed);
  for (std::size_t i = 0; i < steps; ++i) {
    s = step_back(s);
  }
  return s;
}

State seeded_state(std::uint64_t seed) { return Rng(seed).state(); }

/// Raw next() calls Rng::below(bound) consumed from `start`.
int draws_consumed(const State& start, std::uint64_t bound) {
  Rng below_rng;
  below_rng.set_state(start);
  (void)below_rng.below(bound);
  Rng stepper;
  stepper.set_state(start);
  for (int n = 1; n < 64; ++n) {
    (void)stepper.next();
    if (stepper.state() == below_rng.state()) {
      return n;
    }
  }
  return -1;
}

/// A generator over `sites` sites with exactly `k` faults per mask.
MaskGenerator generator_with_k(std::size_t sites, std::size_t k) {
  const MaskGenerator gen(sites, 100.0 * static_cast<double>(k) /
                                     static_cast<double>(sites));
  EXPECT_EQ(gen.faults_per_computation(), k);
  return gen;
}

class LockstepMasks : public ::testing::TestWithParam<simd::SimdTier> {
 protected:
  void SetUp() override {
    if (!simd::tier_supported(GetParam())) {
      GTEST_SKIP() << "tier '" << simd::tier_name(GetParam())
                   << "' not compiled in or not supported by this CPU";
    }
  }

  /// Draws `rounds` masks for lanes [0, lanes) through the tier's
  /// lockstep layer, lane l starting from start[l] (slots past `lanes`
  /// are idle), and checks each lane against MaskGenerator::generate on
  /// an Rng from the same state: same mask every round, same final
  /// state. Idle lanes must stay clear and, if a block stepped them,
  /// have taken exactly one step per Floyd step.
  void expect_matches_scalar(const MaskGenerator& gen,
                             const std::vector<State>& start, unsigned lanes,
                             int rounds) {
    const simd::LaneKernels& kernels = simd::kernels_for(GetParam());
    ASSERT_NE(kernels.lockstep_masks, nullptr);
    auto states = std::make_unique<simd::LaneRngStates>();
    std::vector<Rng> ref(lanes);
    for (unsigned l = 0; l < start.size(); ++l) {
      for (std::size_t w = 0; w < 4; ++w) {
        states->s[w][l] = start[l][w];
      }
      if (l < lanes) {
        ref[l].set_state(start[l]);
      }
    }
    BatchBitVec mask(gen.sites(), lane_words_for(lanes));
    BitVec got(gen.sites());
    BitVec want;
    for (int r = 0; r < rounds; ++r) {
      mask.clear_all();
      kernels.lockstep_masks(gen, *states, lanes, mask);
      for (unsigned l = 0; l < lanes; ++l) {
        gen.generate(ref[l], want);
        mask.extract_lane(l, 0, got);
        ASSERT_TRUE(got == want) << "lane " << l << " round " << r;
      }
      for (unsigned l = lanes; l < mask.lane_words() * kLanesPerWord; ++l) {
        mask.extract_lane(l, 0, got);
        ASSERT_EQ(got.popcount(), 0u) << "idle lane " << l << " wrote a bit";
      }
    }
    for (unsigned l = 0; l < start.size(); ++l) {
      const State now{states->s[0][l], states->s[1][l], states->s[2][l],
                      states->s[3][l]};
      if (l < lanes) {
        EXPECT_EQ(now, ref[l].state()) << "lane " << l;
        continue;
      }
      Rng stepped;
      stepped.set_state(start[l]);
      const std::size_t steps =
          gen.faults_per_computation() * static_cast<std::size_t>(rounds);
      for (std::size_t n = 0; n < steps; ++n) {
        (void)stepped.next();
      }
      EXPECT_TRUE(now == start[l] || now == stepped.state())
          << "idle lane " << l << " was redrawn";
    }
  }
};

/// `lanes` ordinary lanes, idle slots up to the widest block holding
/// x = 0 states, and the lanes in `crafted` replaced by `crafted_state`.
std::vector<State> lane_states(unsigned lanes,
                               const std::vector<unsigned>& crafted,
                               const State& crafted_state) {
  const unsigned slots = (lanes + kWidestBlock - 1) / kWidestBlock *
                         kWidestBlock;
  std::vector<State> s;
  for (unsigned l = 0; l < slots; ++l) {
    s.push_back(l < lanes ? seeded_state(derive_seed({2026, l}))
                          : state_with_next_output(0, 7000 + l));
  }
  for (const unsigned l : crafted) {
    s[l] = crafted_state;
  }
  return s;
}

TEST_P(LockstepMasks, FirstDrawOfZeroIsRejectedAndDrawnAgain) {
  // aluss's site count: k = 1 makes each mask one below(5040) per lane.
  constexpr std::uint64_t kBound = 5040;
  const MaskGenerator gen = generator_with_k(kBound, 1);
  const State zero = state_with_next_output(0, 11);
  {
    Rng r;
    r.set_state(zero);
    ASSERT_EQ(r.next(), 0u);
  }
  ASSERT_GT((0 - kBound) % kBound, 0u) << "0 must fall under 2^64 mod b";
  ASSERT_EQ(draws_consumed(zero, kBound), 2);
  // Crafted lanes in a full first block, the second block and the
  // ragged last block (lanes 16..20 live, 21..23 idle at 8 wide).
  expect_matches_scalar(gen, lane_states(21, {0, 9, 20}, zero), 21, 3);
}

TEST_P(LockstepMasks, LowProductInTheAcceptBandIsKeptOnTheFirstDraw) {
  // alush's site count, odd so that x = low * b^-1 has x * b = low.
  constexpr std::uint64_t kBound = 2205;
  const MaskGenerator gen = generator_with_k(kBound, 1);
  const std::uint64_t threshold = (0 - kBound) % kBound;  // 2^64 mod b
  const std::uint64_t x = threshold * inverse_mod_2_64(kBound);
  ASSERT_EQ(x * kBound, threshold);
  ASSERT_LT(threshold, kBound) << "the low product must take the slow path";
  const State edge = state_with_next_output(x, 13);
  ASSERT_EQ(draws_consumed(edge, kBound), 1);
  expect_matches_scalar(gen, lane_states(20, {3, 8, 19}, edge), 20, 3);
}

TEST_P(LockstepMasks, RejectionLateInAMaskRedrawsOnlyItsLane) {
  // aluss's site count at k = 130: step i draws below(4911 + i).
  constexpr std::size_t kSites = 5040;
  constexpr std::size_t kSteps = 130;
  const MaskGenerator gen = generator_with_k(kSites, kSteps);
  for (const std::size_t step : {0u, 31u, 63u, 64u, 129u}) {
    SCOPED_TRACE("rejected at step " + std::to_string(step));
    const State crafted = state_with_zero_at(step, 17);
    // Every earlier step takes one draw, so step `step` draws x = 0.
    Rng r;
    r.set_state(crafted);
    for (std::size_t i = 0; i < step; ++i) {
      (void)r.below(kSites - kSteps + i + 1);
    }
    ASSERT_EQ(r.state(), state_with_next_output(0, 17));
    ASSERT_EQ(draws_consumed(r.state(), kSites - kSteps + step + 1), 2);
    // Lane 20 is live in the ragged last block (16..20 of 16..23 at 8
    // lanes a block, 20 of 20..23 at 4); the block's idle lanes draw
    // x = 0 at the same step, so a redraw of them would show.
    std::vector<State> start = lane_states(21, {20}, crafted);
    for (unsigned l = 21; l < start.size(); ++l) {
      start[l] = state_with_zero_at(step, 7000 + l);
    }
    expect_matches_scalar(gen, start, 21, 2);
  }
}

TEST(XoshiroStepBack, InvertsTheGeneratorStep) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const State s = seeded_state(seed);
    Rng forward;
    forward.set_state(s);
    (void)forward.next();
    EXPECT_EQ(step_back(forward.state()), s) << "seed " << seed;
    Rng back;
    back.set_state(step_back(s));
    (void)back.next();
    EXPECT_EQ(back.state(), s) << "seed " << seed;
  }
}

TEST_P(LockstepMasks, RaggedGroupsMatchScalarMasksAndIdleLanesStayClear) {
  // aluss at 2%: 101 Floyd steps per mask.
  const MaskGenerator gen(5040, 2.0);
  for (const unsigned lanes : {1u, 7u, 9u, 63u, 64u, 65u, 257u, 511u, 512u}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    expect_matches_scalar(gen, lane_states(lanes, {}, State{}), lanes, 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, LockstepMasks,
    ::testing::Values(simd::SimdTier::kScalar, simd::SimdTier::kAvx2,
                      simd::SimdTier::kAvx512),
    [](const ::testing::TestParamInfo<simd::SimdTier>& info) {
      return std::string(simd::tier_name(info.param));
    });

}  // namespace
}  // namespace nbx
