#include "fault/mask_generator.hpp"

#include <bit>
#include <cassert>
#include <cmath>

namespace nbx {

MaskGenerator::MaskGenerator(std::size_t sites, double fault_percent,
                             FaultCountPolicy policy,
                             std::size_t burst_length, std::size_t burst_rows,
                             std::size_t burst_row_stride)
    : sites_(sites), fault_percent_(fault_percent), policy_(policy),
      burst_length_(burst_length), burst_rows_(burst_rows),
      burst_row_stride_(burst_row_stride) {
  assert(fault_percent >= 0.0 && fault_percent <= 100.0);
  assert(burst_length >= 1);
  assert(burst_rows >= 1);
  // A multi-row neighbourhood is only meaningful against a row geometry.
  assert(burst_rows == 1 || burst_row_stride > 0);
}

std::size_t MaskGenerator::faults_per_computation() const {
  const double exact = static_cast<double>(sites_) * fault_percent_ / 100.0;
  switch (policy_) {
    case FaultCountPolicy::kFloor:
      return static_cast<std::size_t>(std::floor(exact));
    case FaultCountPolicy::kRoundNearest:
    case FaultCountPolicy::kBernoulli:
    case FaultCountPolicy::kBurst:
      return static_cast<std::size_t>(std::llround(exact));
  }
  return 0;  // unreachable
}

std::size_t MaskGenerator::strikes_per_computation() const {
  if (policy_ != FaultCountPolicy::kBurst) {
    return 0;
  }
  const std::size_t rows = burst_row_stride_ > 0 ? burst_rows_ : 1;
  const std::size_t area = burst_length_ * rows;
  if (area <= 1) {
    return 0;  // 1×1 neighbourhood degenerates to uniform sampling
  }
  const std::size_t k = faults_per_computation();
  return k == 0 ? 0 : (k + area - 1) / area;
}

// The one generation algorithm, templated over the bit sink so the
// scalar (BitVec) and batched (BatchBitVec lane) paths cannot drift
// apart: both consume the Rng through identical draws in identical
// order, which is what the batched engine's bit-identity rests on.
template <class SetBit, class FlipBit, class TestBit>
void MaskGenerator::generate_into(Rng& rng, const SetBit& set_bit,
                                  const FlipBit& flip_bit,
                                  const TestBit& test_bit) const {
  if (policy_ == FaultCountPolicy::kBernoulli) {
    const double p = fault_percent_ / 100.0;
    for (std::size_t i = 0; i < sites_; ++i) {
      if (rng.bernoulli(p)) {
        flip_bit(i);
      }
    }
    return;
  }
  const std::size_t k = faults_per_computation();
  if (k == 0) {
    return;
  }
  if (const std::size_t strikes = strikes_per_computation(); strikes > 0) {
    // Deliver ~k flips as ceil(k / area) strikes of an L×R neighbourhood.
    // Strike anchors are uniform (one below(sites) draw per strike in
    // both geometries, so a 1-D spec consumes the Rng exactly as it
    // always has); runs may overlap (overlaps model coincident strikes).
    if (burst_row_stride_ == 0) {
      // Historical 1-D semantics, bit-for-bit: the run truncates at the
      // end of the site space.
      for (std::size_t s = 0; s < strikes; ++s) {
        const auto start = static_cast<std::size_t>(rng.below(sites_));
        for (std::size_t i = 0; i < burst_length_ && start + i < sites_;
             ++i) {
          set_bit(start + i);
        }
      }
      return;
    }
    // 2-D neighbourhood over the site space viewed as rows of
    // burst_row_stride_ sites: the strike covers burst_length_ columns ×
    // burst_rows_ rows down-and-right of the anchor, clipping at the row
    // edge (a strike never wraps into the next row's unrelated storage)
    // and at the end of the site space.
    for (std::size_t s = 0; s < strikes; ++s) {
      const auto anchor = static_cast<std::size_t>(rng.below(sites_));
      const std::size_t anchor_row = anchor / burst_row_stride_;
      const std::size_t anchor_col = anchor % burst_row_stride_;
      for (std::size_t r = 0; r < burst_rows_; ++r) {
        const std::size_t row_base = (anchor_row + r) * burst_row_stride_;
        for (std::size_t c = 0;
             c < burst_length_ && anchor_col + c < burst_row_stride_; ++c) {
          const std::size_t site = row_base + anchor_col + c;
          if (site < sites_) {
            set_bit(site);
          }
        }
      }
    }
    return;
  }
  // Floyd's sampling with the mask itself as the chosen-set: the bits
  // set so far ARE the sample drawn so far (the mask segment starts
  // clear, and iteration j can never land on an already-set j). One
  // below(j + 1) draw per step — exactly the sequence the historical
  // Rng::sample_without_replacement consumed, and the same final masks,
  // but with no per-computation set/vector allocations. The wide
  // engine's lockstep_masks (simd/lane_engine_inl.hpp) runs this same
  // loop for a block of lanes at once and must draw exactly as it does
  // (tests/sim/lockstep_mask_test.cpp compares the two).
  for (std::size_t j = sites_ - k; j < sites_; ++j) {
    const auto t = static_cast<std::size_t>(rng.below(j + 1));
    if (test_bit(t)) {
      set_bit(j);
    } else {
      set_bit(t);
    }
  }
}

void MaskGenerator::generate(Rng& rng, BitVec& mask) const {
  if (mask.size() != sites_) {
    mask = BitVec(sites_);
  } else {
    mask.clear_all();
  }
  generate_into(
      rng, [&mask](std::size_t i) { mask.set(i, true); },
      [&mask](std::size_t i) { mask.flip(i); },
      [&mask](std::size_t i) { return mask.get(i); });
}

void MaskGenerator::generate(Rng& rng, BatchBitVec& mask,
                             unsigned lane) const {
  // >= rather than ==: for datapath-only injection the generator covers
  // only the leading (eligible) segment of the full-ALU batch mask,
  // mirroring the scalar harness's scratch-then-copy. The lane's leading
  // segment must be clear on entry — it doubles as Floyd's chosen-set.
  assert(mask.sites() >= sites_);
  assert(lane < mask.lane_words() * kLanesPerWord);
  // The lane's word in site i's row is lane_word[i * stride].
  std::uint64_t* lane_word = mask.row(0) + lane / kLanesPerWord;
  const std::size_t stride = mask.lane_words();
  const std::uint64_t lane_bit = std::uint64_t{1} << (lane % kLanesPerWord);
  generate_into(
      rng,
      [lane_word, stride, lane_bit](std::size_t i) {
        lane_word[i * stride] |= lane_bit;
      },
      [lane_word, stride, lane_bit](std::size_t i) {
        lane_word[i * stride] ^= lane_bit;
      },
      [lane_word, stride, lane_bit](std::size_t i) {
        return (lane_word[i * stride] & lane_bit) != 0;
      });
}

BitVec MaskGenerator::generate(Rng& rng) const {
  BitVec mask(sites_);
  generate(rng, mask);
  return mask;
}

std::uint64_t MaskGenerator::trial_seed(std::uint64_t master_seed,
                                        std::uint64_t alu_name_hash,
                                        double fault_percent,
                                        std::size_t workload_index,
                                        std::size_t trial_index) {
  // The percent enters by bit pattern rather than sweep index so a data
  // point's stream does not depend on its position in (or membership of)
  // any particular sweep.
  return derive_seed({master_seed, alu_name_hash,
                      std::bit_cast<std::uint64_t>(fault_percent),
                      static_cast<std::uint64_t>(workload_index),
                      static_cast<std::uint64_t>(trial_index)});
}

}  // namespace nbx
