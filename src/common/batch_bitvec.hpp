// batch_bitvec.hpp — lane-sliced bit storage for the bit-parallel batched
// trial engine.
//
// Classic parallel-pattern fault simulation packs many independent
// patterns into one machine word; here the packed dimension is the Monte
// Carlo *trial*. A BatchBitVec holds `lane_words` 64-bit words per fault
// site (a contiguous row), and bit L%64 of row word L/64 is the site's
// value in trial lane L. With 1/2/4/8 lane words a row is exactly one
// 64/128/256/512-bit vector register, which is what the SIMD lane engine
// (src/simd/) loads per site. The scalar engine's BitVec is the
// transpose (site-packed, one trial); extracting a lane of a BatchBitVec
// yields exactly the BitVec that trial would have seen, which is what
// makes the batched engine bit-identical to the scalar one (see
// tests/check/backend_table_test.cpp).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"

namespace nbx {

/// Trial lanes per 64-bit lane word.
inline constexpr unsigned kLanesPerWord = 64;

/// Maximum lane words per site row (one 512-bit vector register).
inline constexpr std::size_t kMaxLaneWords = 8;

/// Maximum trial lanes a batch can pack: kMaxLaneWords words of 64.
inline constexpr unsigned kMaxBatchLanes = kLanesPerWord * kMaxLaneWords;

/// Broadcasts a scalar bit across all 64 lanes of one lane word.
inline std::uint64_t lane_broadcast(bool v) {
  return v ? ~std::uint64_t{0} : std::uint64_t{0};
}

/// Word with the low `lanes` lane bits set (the "active lanes" mask of a
/// possibly partial batch). lanes must be in [1, 64].
inline std::uint64_t lane_mask_for(unsigned lanes) {
  return lanes >= 64 ? ~std::uint64_t{0}
                     : (std::uint64_t{1} << lanes) - 1;
}

/// Lane words needed for `lanes` trial lanes, rounded up to a power of
/// two so a site row is always a whole 64/128/256/512-bit register:
/// 1..64 -> 1, 65..128 -> 2, 129..256 -> 4, 257..512 -> 8.
[[nodiscard]] std::size_t lane_words_for(unsigned lanes);

/// A sites x (64 * lane_words)-lane bit matrix stored site-major:
/// row(s) holds site s across every lane as `lane_words` contiguous
/// words. Used for batched fault masks: the mask generator writes each
/// lane's fresh mask into its bit column, and lane-sliced evaluators
/// consume whole rows.
class BatchBitVec {
 public:
  BatchBitVec() = default;

  /// Creates a matrix of `sites` rows of `lane_words` words, all zero.
  explicit BatchBitVec(std::size_t sites, std::size_t lane_words = 1)
      : sites_(sites), lane_words_(lane_words),
        words_(sites * lane_words, 0) {
    assert(lane_words >= 1 && lane_words <= kMaxLaneWords);
  }

  /// Number of fault sites (rows).
  [[nodiscard]] std::size_t sites() const { return sites_; }
  /// Words per site row (the lane capacity is 64 * lane_words()).
  [[nodiscard]] std::size_t lane_words() const { return lane_words_; }
  [[nodiscard]] bool empty() const { return sites_ == 0; }

  /// All lanes of one site: `lane_words()` contiguous words.
  [[nodiscard]] const std::uint64_t* row(std::size_t site) const {
    return words_.data() + site * lane_words_;
  }
  [[nodiscard]] std::uint64_t* row(std::size_t site) {
    return words_.data() + site * lane_words_;
  }

  /// Single (site, lane) bit accessors — the scalar BitVec analogues.
  [[nodiscard]] bool get(std::size_t site, unsigned lane) const {
    return (words_[site * lane_words_ + lane / kLanesPerWord] >>
            (lane % kLanesPerWord)) &
           1u;
  }
  void set(std::size_t site, unsigned lane, bool v) {
    std::uint64_t& w =
        words_[site * lane_words_ + lane / kLanesPerWord];
    const std::uint64_t m = std::uint64_t{1} << (lane % kLanesPerWord);
    if (v) {
      w |= m;
    } else {
      w &= ~m;
    }
  }
  void flip(std::size_t site, unsigned lane) {
    words_[site * lane_words_ + lane / kLanesPerWord] ^=
        std::uint64_t{1} << (lane % kLanesPerWord);
  }

  /// Zeroes every lane of every site without reallocating. Touches only
  /// the live sites() x lane_words() words, never the spare capacity a
  /// shrinking reshape() leaves behind.
  void clear_all();

  /// Re-dimensions to (sites, lane_words) and zeroes every bit. Never
  /// shrinks the underlying capacity, so repeated reshape() to the same
  /// (or smaller) dimensions allocates nothing — the per-worker arena
  /// in the trial engine depends on this.
  void reshape(std::size_t sites, std::size_t lane_words);

  /// Copies sites [offset, offset + out.size()) of lane `lane` into the
  /// site-packed scalar vector `out`: one lane's mask as the scalar
  /// engine would draw it. Tests are its only readers; the wide engine
  /// never leaves the lane-sliced layout.
  void extract_lane(unsigned lane, std::size_t offset, BitVec& out) const;

  /// Raw word array (size sites() * lane_words(), site-major rows), for
  /// bulk lane-sliced consumers.
  [[nodiscard]] const std::uint64_t* data() const { return words_.data(); }
  [[nodiscard]] std::uint64_t* data() { return words_.data(); }

 private:
  std::size_t sites_ = 0;
  std::size_t lane_words_ = 1;
  std::vector<std::uint64_t> words_;
};

}  // namespace nbx
