// mask_generator.hpp — per-computation random fault-mask generation.
//
// Paper §4 / Figure 6: "we inject errors in the NanoBox ALUs by XORing the
// lookup table bit strings with a fault mask ... After each ALU
// computation, we generate a new fault mask, thereby modeling uniformly
// distributed random transient device faults." and "we force a given
// fraction of the fault injection points to flip their states".
//
// A MaskGenerator is bound to a site count N and a fault percentage p and
// produces, on demand, a fresh N-bit mask with round(N*p/100) uniformly
// chosen set bits (the rounding policy matches the paper's worked example:
// 1% of aluss's 5040 sites -> "50 total faults"). Alternative policies
// (floor, independent Bernoulli per site) are provided for the rounding
// ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/batch_bitvec.hpp"
#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace nbx {

/// How a fault percentage is turned into a per-computation fault count.
enum class FaultCountPolicy : std::uint8_t {
  kRoundNearest,  ///< k = round(N * p / 100)  — matches the paper's example
  kFloor,         ///< k = floor(N * p / 100)
  kBernoulli,     ///< each site flips independently with probability p/100
  kBurst,         ///< k total flips delivered as contiguous runs of
                  ///< `burst_length` sites — models spatially correlated
                  ///< upsets (one particle strike disturbing neighbouring
                  ///< nanocells) instead of the paper's uniform model.
                  ///< With a nonzero `burst_row_stride` the run generalizes
                  ///< to a 2-D `burst_length` × `burst_rows` neighbourhood
                  ///< over the site space viewed as rows of `stride` sites
                  ///< (LUT rows / grid coordinates); runs clip at row edges
                  ///< instead of wrapping into unrelated storage.
};

/// Generates fresh uniformly random fault masks over a fixed site space.
class MaskGenerator {
 public:
  /// `sites` — number of fault-injection points (Table 2 column 2);
  /// `fault_percent` — the paper's x-axis value, in [0, 100];
  /// `burst_length` — contiguous run per strike (kBurst only, >= 1);
  /// `burst_rows` — neighbourhood height per strike (kBurst only, >= 1);
  /// `burst_row_stride` — sites per row for the 2-D neighbourhood view;
  /// 0 keeps the historical 1-D run semantics bit-for-bit.
  MaskGenerator(std::size_t sites, double fault_percent,
                FaultCountPolicy policy = FaultCountPolicy::kRoundNearest,
                std::size_t burst_length = 1, std::size_t burst_rows = 1,
                std::size_t burst_row_stride = 0);

  [[nodiscard]] std::size_t sites() const { return sites_; }
  [[nodiscard]] double fault_percent() const { return fault_percent_; }
  [[nodiscard]] FaultCountPolicy policy() const { return policy_; }
  [[nodiscard]] std::size_t burst_length() const { return burst_length_; }
  [[nodiscard]] std::size_t burst_rows() const { return burst_rows_; }
  [[nodiscard]] std::size_t burst_row_stride() const {
    return burst_row_stride_;
  }

  /// Deterministic fault count per computation for the counting policies;
  /// for kBernoulli this is the *expected* count rounded to nearest.
  [[nodiscard]] std::size_t faults_per_computation() const;

  /// Number of correlated strikes delivered per computation: ceil(k /
  /// neighbourhood area) when the kBurst strike path is active, 0 for
  /// every other policy (and for the degenerate 1×1 neighbourhood, which
  /// falls back to uniform sampling). Deterministic — the scalar and wide
  /// engines account scenario strike counters from this without touching
  /// any Rng.
  [[nodiscard]] std::size_t strikes_per_computation() const;

  /// True for the i.i.d. counting policies (kRoundNearest, kFloor): every
  /// mask is exactly faults_per_computation() Floyd steps, the step for
  /// j = sites() - k .. sites() - 1 drawing one rng.below(j + 1). Every
  /// trial's generator then walks the same j sequence, which is what
  /// lets the wide engine step a lane group's generators in lockstep.
  [[nodiscard]] bool uniform_count() const {
    return policy_ == FaultCountPolicy::kRoundNearest ||
           policy_ == FaultCountPolicy::kFloor;
  }

  /// Generates a fresh mask into `mask` (resized/cleared as needed).
  /// Fault positions are uniform without replacement.
  void generate(Rng& rng, BitVec& mask) const;

  /// Convenience: returns a newly allocated mask.
  [[nodiscard]] BitVec generate(Rng& rng) const;

  /// Batched-engine variant: writes a fresh mask into the leading
  /// sites() segment of lane `lane` of `mask` (whose site count must be
  /// >= sites(); trailing sites model injection-exempt hardware and are
  /// left untouched). Consumes `rng`
  /// EXACTLY as the scalar generate() does — same draws, same order — so
  /// a lane fed a trial's Rng reproduces that trial's scalar mask stream
  /// bit for bit. Does NOT clear the lane first: the caller clears the
  /// whole batch once per computation (BatchBitVec::clear_all), which is
  /// the batched analogue of the scalar per-mask clear.
  void generate(Rng& rng, BatchBitVec& mask, unsigned lane) const;

  /// Counter-based per-trial seed derivation shared by the serial and
  /// parallel experiment harnesses. The seed is a pure function of
  /// (master seed, ALU-name hash, fault-percent bit pattern, workload
  /// index, trial index): no generator state is threaded between trials,
  /// so any assignment of trials to threads — or any execution order —
  /// regenerates the exact same mask stream for each trial.
  static std::uint64_t trial_seed(std::uint64_t master_seed,
                                  std::uint64_t alu_name_hash,
                                  double fault_percent,
                                  std::size_t workload_index,
                                  std::size_t trial_index);

 private:
  std::size_t sites_;
  double fault_percent_;
  FaultCountPolicy policy_;
  std::size_t burst_length_;
  std::size_t burst_rows_;
  std::size_t burst_row_stride_;

  // Shared generation core: both public overloads funnel through this so
  // their Rng consumption cannot diverge (defined in the .cpp; only the
  // .cpp instantiates it).
  template <class SetBit, class FlipBit, class TestBit>
  void generate_into(Rng& rng, const SetBit& set_bit,
                     const FlipBit& flip_bit,
                     const TestBit& test_bit) const;
};

}  // namespace nbx
