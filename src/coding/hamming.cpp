#include "coding/hamming.hpp"

#include <cassert>
#include <bit>

namespace nbx {

std::size_t HammingCode::check_bits_for(std::size_t data_bits) {
  std::size_t r = 0;
  while ((std::size_t{1} << r) < data_bits + r + 1) {
    ++r;
  }
  return r;
}

HammingCode::HammingCode(std::size_t data_bits)
    : data_bits_(data_bits), check_bits_(check_bits_for(data_bits)) {
  assert(data_bits >= 1);
  const std::size_t n = codeword_bits();
  pos_to_data_index_.assign(n + 1, -1);
  data_pos_.reserve(data_bits_);
  check_pos_.reserve(check_bits_);
  std::size_t next_data = 0;
  for (std::uint32_t p = 1; p <= n; ++p) {
    if (std::has_single_bit(p)) {
      check_pos_.push_back(p);
    } else {
      pos_to_data_index_[p] = static_cast<std::int32_t>(next_data);
      data_pos_.push_back(p);
      ++next_data;
    }
  }
  assert(next_data == data_bits_);
  assert(check_pos_.size() == check_bits_);
}

BitVec HammingCode::generate_check_bits(const BitVec& data) const {
  assert(data.size() == data_bits_);
  BitVec checks(check_bits_);
  // Check bit i covers all positions whose 1-based index has bit i set.
  for (std::size_t d = 0; d < data_bits_; ++d) {
    if (!data.get(d)) {
      continue;
    }
    const std::uint32_t p = data_pos_[d];
    for (std::size_t i = 0; i < check_bits_; ++i) {
      if (p & (1u << i)) {
        checks.flip(i);
      }
    }
  }
  return checks;
}

std::uint32_t HammingCode::syndrome_of(const BitVec& data,
                                       const BitVec& checks) const {
  // Check bit i covers the positions with bit i set, so the recomputed
  // check bits are the XOR of the set data bits' positions.
  auto syn = static_cast<std::uint32_t>(checks.extract(0, check_bits_));
  for (std::size_t d = 0; d < data_bits_; ++d) {
    if (data.get(d)) {
      syn ^= data_pos_[d];
    }
  }
  return syn;
}

HammingCode::Decode HammingCode::decode(const BitVec& data,
                                        const BitVec& stored_checks) const {
  Decode d;
  d.syndrome = syndrome_of(data, stored_checks);
  if (d.syndrome == 0) {
    d.kind = Decode::Kind::kClean;
  } else if (d.syndrome > codeword_bits()) {
    d.kind = Decode::Kind::kInvalid;
  } else if (pos_to_data_index_[d.syndrome] >= 0) {
    d.kind = Decode::Kind::kDataBit;
    d.data_index = pos_to_data_index_[d.syndrome];
  } else {
    d.kind = Decode::Kind::kCheckBit;
  }
  return d;
}

HammingStatus HammingCode::detect_and_correct(
    BitVec& data, const BitVec& stored_checks) const {
  assert(data.size() == data_bits_);
  assert(stored_checks.size() == check_bits_);
  const std::uint32_t syn = syndrome_of(data, stored_checks);
  if (syn == 0) {
    return HammingStatus::kNoError;
  }
  if (syn > codeword_bits()) {
    // No single-bit flip produces this syndrome; leave the word alone.
    return HammingStatus::kUncorrectable;
  }
  const std::int32_t d = pos_to_data_index_[syn];
  if (d >= 0) {
    data.flip(static_cast<std::size_t>(d));
  }
  // A syndrome at a check position means the check bit itself flipped;
  // the data is already correct, nothing to repair.
  return HammingStatus::kCorrected;
}

}  // namespace nbx
