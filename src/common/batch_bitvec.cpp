#include "common/batch_bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace nbx {

std::size_t lane_words_for(unsigned lanes) {
  assert(lanes >= 1 && lanes <= kMaxBatchLanes);
  const auto words =
      static_cast<std::size_t>((lanes + kLanesPerWord - 1) / kLanesPerWord);
  return std::bit_ceil(words);
}

void BatchBitVec::clear_all() {
  // Only the live extent: after a shrinking reshape() the grow-only
  // buffer is larger than sites() x lane_words(), and clearing the
  // stale tail would cost every caller the largest shape ever used.
  std::fill_n(words_.begin(), sites_ * lane_words_, std::uint64_t{0});
}

void BatchBitVec::reshape(std::size_t sites, std::size_t lane_words) {
  assert(lane_words >= 1 && lane_words <= kMaxLaneWords);
  sites_ = sites;
  lane_words_ = lane_words;
  const std::size_t need = sites * lane_words;
  if (words_.size() < need) {
    words_.resize(need, 0);
  }
  clear_all();
}

void BatchBitVec::extract_lane(unsigned lane, std::size_t offset,
                               BitVec& out) const {
  assert(lane < lane_words_ * kLanesPerWord);
  assert(offset + out.size() <= sites_);
  const std::uint64_t* w =
      words_.data() + offset * lane_words_ + lane / kLanesPerWord;
  const unsigned bit = lane % kLanesPerWord;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out.set(i, (w[i * lane_words_] >> bit) & 1u);
  }
}

}  // namespace nbx
