// lane_kernels.hpp — the ABI between the lane-engine dispatcher and the
// per-tier kernel translation units.
//
// Each dispatch tier (scalar / AVX2 / AVX-512) compiles the SAME
// templated group-trial kernel (lane_engine_inl.hpp) in its own
// namespace with its own -m flags; what crosses the TU boundary is this
// plain-data job description plus a table of function pointers, one per
// lane-word width W in {1, 2, 4, 8}. One indirect call per lane group is
// the entire dispatch overhead.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/batch_bitvec.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "obs/counters.hpp"
#include "workload/instruction_stream.hpp"

namespace nbx::simd {

class WideMirror;

/// A lane group's xoshiro256** states, structure-of-arrays: word w of
/// lane l's state is s[w][l], so the lockstep mask layer loads a block
/// of lanes' words as one vector. Fixed-size (16 KB) for the widest
/// group.
struct LaneRngStates {
  alignas(64) std::uint64_t s[4][kMaxBatchLanes] = {};

  /// Copies in the states of rngs[0 .. lanes).
  void load(const Rng* rngs, unsigned lanes) {
    for (unsigned l = 0; l < lanes; ++l) {
      const std::array<std::uint64_t, 4> st = rngs[l].state();
      for (std::size_t w = 0; w < 4; ++w) {
        s[w][l] = st[w];
      }
    }
  }
};

/// Reusable per-worker scratch (the arena): one thread_local instance
/// per worker thread, sized on first use and reused for every lane
/// group after — the batched hot path performs zero heap allocations in
/// steady state (enforced by tests/audit/alloc_audit_test.cpp).
struct WideArena {
  BatchBitVec mask;                  ///< total_sites x lanes fault mask
  std::vector<Rng> rngs;             ///< one per lane in the group
  /// rngs as SoA for the lockstep mask layer. On the heap, not inline:
  /// a thread_local arena's inline bytes are reserved in every thread
  /// the process starts, wide-engine worker or not.
  std::unique_ptr<LaneRngStates> lane_states;
  std::vector<std::uint32_t> incorrect;  ///< per-lane wrong-result count
  std::vector<std::uint64_t> nodes;  ///< netlist node words (W per node)
  std::vector<MaskGenerator> gens;   ///< per-lane generators (wear-out
                                     ///< schedules only; empty when the
                                     ///< group shares WideGroupJob::gen)

  /// Approximate resident size of this arena's buffers, for the
  /// engine_arena_bytes gauge. Capacities, not sizes — the arena never
  /// shrinks, so this is what the worker actually holds.
  [[nodiscard]] std::size_t bytes() const {
    return mask.sites() * mask.lane_words() * sizeof(std::uint64_t) +
           rngs.capacity() * sizeof(Rng) +
           (lane_states ? sizeof(LaneRngStates) : 0) +
           incorrect.capacity() * sizeof(std::uint32_t) +
           nodes.capacity() * sizeof(std::uint64_t) +
           gens.capacity() * sizeof(MaskGenerator);
  }
};

/// Everything one lane-group trial needs, flattened. The kernel runs the
/// whole instruction stream for the group: per instruction it clears the
/// mask, regenerates every lane's mask from its Rng (identical draws to
/// the scalar engine — the bit-identity contract), evaluates the mirror,
/// and scores lanes against the golden results.
struct WideGroupJob {
  const WideMirror* mirror = nullptr;
  const MaskGenerator* gen = nullptr;  ///< bound to inject_sites
  /// Per-lane generators (gens[l] for lane l), or null when every lane
  /// shares `gen`. Non-null under a FaultScenario rate schedule, where
  /// each lane is a different trial index running at its own effective
  /// rate; lane l still consumes rngs[l] draw-for-draw like the scalar
  /// engine, so bit-identity holds per tier and width.
  const MaskGenerator* gens = nullptr;
  const Instruction* stream = nullptr;
  std::size_t stream_len = 0;
  unsigned in_group = 0;      ///< active lanes, 1 .. 64 * lane_words
  std::size_t total_sites = 0;
  std::size_t inject_sites = 0;
  obs::Counters* anatomy = nullptr;  ///< null = anatomy off
  WideArena* arena = nullptr;  ///< mask/rngs sized by the caller;
                               ///< incorrect[] is the kernel's output
};

/// Per-tier kernel table: run_group[log2(W)] executes one lane group at
/// W lane words. Exactly the entries a tier TU instantiated.
/// lockstep_masks is the tier's mask layer for gen.uniform_count()
/// generators, which run_group calls once per instruction: a fresh mask
/// of `gen` for lanes [0, lanes) of `mask` (leading gen.sites() rows
/// clear on entry), lane l drawing from its state in `states` exactly
/// as MaskGenerator::generate draws from an Rng. Exported so tests can
/// drive it on every tier directly.
struct LaneKernels {
  using RunGroupFn = void (*)(const WideGroupJob&);
  using MaskFn = void (*)(const MaskGenerator& gen, LaneRngStates& states,
                          unsigned lanes, BatchBitVec& mask);
  RunGroupFn run_group[4] = {};  // W = 1, 2, 4, 8
  MaskFn lockstep_masks = nullptr;
};

}  // namespace nbx::simd
