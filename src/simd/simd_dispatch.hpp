// simd_dispatch.hpp — runtime dispatch tiers for the wide lane engine.
//
// The batched trial engine's hot loops (mux-tree LUT decode, syndrome
// accumulation, gate-level netlist evaluation) are plain bitwise word
// loops; compiled per-TU with -mavx2 / -mavx512* they auto-vectorize to
// 256/512-bit registers. Each such compilation is a *tier*. This header
// owns the tier taxonomy and the runtime selection:
//
//   * tier_compiled(t)  — was tier t's translation unit built into this
//                         binary? (CMake probes the compiler flags.)
//   * tier_supported(t) — compiled AND the running CPU advertises the
//                         ISA (CPUID via __builtin_cpu_supports).
//   * active_tier()     — what the engine will actually run:
//                         programmatic override > NBX_SIMD_TIER env var
//                         > best supported tier. A requested tier the
//                         machine cannot run clamps down to the best
//                         supported tier at or below it, never up.
//
// Every tier is bit-identical by construction — same algorithms, same
// word semantics, different register widths — which the nbxcheck
// backend-differential family and the forced-tier goldens enforce
// (docs/TESTING.md).
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace nbx::simd {

/// Dispatch tiers, ordered: a higher tier strictly implies the ISA of
/// every lower one. kScalar is the portable multi-word fallback and the
/// oracle the wider tiers are verified against.
enum class SimdTier : std::uint8_t { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

inline constexpr std::size_t kTierCount = 3;

/// Stable lower-case tier name ("scalar", "avx2", "avx512") — the JSON
/// tag and the NBX_SIMD_TIER vocabulary.
std::string_view tier_name(SimdTier tier);

/// Parses a tier name (as accepted in NBX_SIMD_TIER); nullopt on
/// anything unrecognized.
std::optional<SimdTier> parse_tier(std::string_view name);

/// True when tier `t`'s kernels were compiled into this binary.
bool tier_compiled(SimdTier tier);

/// True when the tier is compiled in and the running CPU supports its
/// instruction set. kScalar is always supported.
bool tier_supported(SimdTier tier);

/// Highest supported tier on this machine/binary.
SimdTier best_tier();

/// The tier the lane engine dispatches to right now: the programmatic
/// override if set, else NBX_SIMD_TIER from the environment if set and
/// parseable, else best_tier(). A request above what the machine
/// supports clamps down to the best supported tier at or below it.
SimdTier active_tier();

/// Installs (or with nullopt clears) a process-wide tier override.
/// Takes precedence over NBX_SIMD_TIER. Not thread-safe against
/// concurrent active_tier() readers: flip it only between engine runs
/// (the forced-tier tests and the nbxcheck backend-differential family do
/// exactly that).
void set_tier_override(std::optional<SimdTier> tier);

/// RAII tier pin for tests: override on construction, restore the
/// previous override on destruction.
class ScopedTierOverride {
 public:
  explicit ScopedTierOverride(SimdTier tier);
  ~ScopedTierOverride();
  ScopedTierOverride(const ScopedTierOverride&) = delete;
  ScopedTierOverride& operator=(const ScopedTierOverride&) = delete;

 private:
  std::optional<SimdTier> previous_;
};

}  // namespace nbx::simd
