#include "coding/hsiao.hpp"

#include <bit>
#include <cassert>

namespace nbx {

namespace {
// Counts r-bit values with odd popcount and weight >= 3 (unit vectors are
// reserved for check bits).
std::size_t odd_nonunit_columns(std::size_t r) {
  std::size_t n = 0;
  for (std::uint32_t v = 1; v < (1u << r); ++v) {
    const int w = std::popcount(v);
    if ((w & 1) && w >= 3) {
      ++n;
    }
  }
  return n;
}
}  // namespace

std::size_t HsiaoCode::check_bits_for(std::size_t data_bits) {
  std::size_t r = 3;
  while (odd_nonunit_columns(r) < data_bits) {
    ++r;
  }
  return r;
}

HsiaoCode::HsiaoCode(std::size_t data_bits)
    : data_bits_(data_bits), check_bits_(check_bits_for(data_bits)) {
  // Assign data columns in increasing weight (3, 5, ...) then numeric
  // order — the classic Hsiao construction balances row weights; for a
  // simulation-only decoder any distinct odd-weight assignment works.
  data_cols_.reserve(data_bits_);
  for (int w = 3; data_cols_.size() < data_bits_; w += 2) {
    for (std::uint32_t v = 1;
         v < (1u << check_bits_) && data_cols_.size() < data_bits_; ++v) {
      if (std::popcount(v) == w) {
        data_cols_.push_back(v);
      }
    }
  }
}

BitVec HsiaoCode::generate_check_bits(const BitVec& data) const {
  assert(data.size() == data_bits_);
  std::uint32_t acc = 0;
  for (std::size_t d = 0; d < data_bits_; ++d) {
    if (data.get(d)) {
      acc ^= data_cols_[d];
    }
  }
  BitVec checks(check_bits_);
  checks.deposit(0, check_bits_, acc);
  return checks;
}

std::uint32_t HsiaoCode::syndrome_of(const BitVec& data,
                                     const BitVec& checks) const {
  // The recomputed check bits are the XOR of the set data bits' columns.
  auto syn = static_cast<std::uint32_t>(checks.extract(0, check_bits_));
  for (std::size_t d = 0; d < data_bits_; ++d) {
    if (data.get(d)) {
      syn ^= data_cols_[d];
    }
  }
  return syn;
}

HsiaoStatus HsiaoCode::detect_and_correct(BitVec& data,
                                          const BitVec& stored_checks) const {
  assert(data.size() == data_bits_);
  assert(stored_checks.size() == check_bits_);
  const std::uint32_t syn = syndrome_of(data, stored_checks);
  if (syn == 0) {
    return HsiaoStatus::kNoError;
  }
  if ((std::popcount(syn) & 1) == 0) {
    return HsiaoStatus::kDoubleDetected;
  }
  if (std::has_single_bit(syn)) {
    // Unit-vector syndrome: the check bit itself flipped; data is intact.
    return HsiaoStatus::kCorrected;
  }
  for (std::size_t d = 0; d < data_bits_; ++d) {
    if (data_cols_[d] == syn) {
      data.flip(d);
      return HsiaoStatus::kCorrected;
    }
  }
  return HsiaoStatus::kUncorrectable;
}

}  // namespace nbx
