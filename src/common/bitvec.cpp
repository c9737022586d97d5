#include "common/bitvec.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

namespace nbx {

BitVec BitVec::from_string(const std::string& s) {
  BitVec v(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[s.size() - 1 - i];
    if (c != '0' && c != '1') {
      throw std::invalid_argument("BitVec::from_string: expected only 0/1");
    }
    v.set(i, c == '1');
  }
  return v;
}

void BitVec::xor_with(const BitVec& other) {
  assert(size_ == other.size_);
  for (std::size_t w = 0; w < words_.size(); ++w) {
    words_[w] ^= other.words_[w];
  }
}

std::size_t BitVec::popcount() const {
  std::size_t n = 0;
  for (const std::uint64_t w : words_) {
    n += static_cast<std::size_t>(std::popcount(w));
  }
  return n;
}

void BitVec::clear_all() {
  for (auto& w : words_) {
    w = 0;
  }
}

bool BitVec::any() const {
  for (const std::uint64_t w : words_) {
    if (w != 0) {
      return true;
    }
  }
  return false;
}

bool BitVec::any_in(std::size_t lo, std::size_t n) const {
  assert(lo + n <= size_);
  for (std::size_t i = lo, end = lo + n; i < end;) {
    const std::size_t bit = i & 63;
    const std::size_t take = std::min<std::size_t>(64 - bit, end - i);
    const std::uint64_t m =
        (take == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << take) - 1)
        << bit;
    if ((words_[i >> 6] & m) != 0) {
      return true;
    }
    i += take;
  }
  return false;
}

std::string BitVec::to_string() const {
  std::string s(size_, '0');
  for (std::size_t i = 0; i < size_; ++i) {
    if (get(i)) {
      s[size_ - 1 - i] = '1';
    }
  }
  return s;
}

std::uint64_t BitVec::extract(std::size_t lo, std::size_t n) const {
  assert(n <= 64 && lo + n <= size_);
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < n; ++i) {
    v |= static_cast<std::uint64_t>(get(lo + i)) << i;
  }
  return v;
}

void BitVec::deposit(std::size_t lo, std::size_t n, std::uint64_t v) {
  assert(n <= 64 && lo + n <= size_);
  for (std::size_t i = 0; i < n; ++i) {
    set(lo + i, (v >> i) & 1u);
  }
}

void BitVec::mask_tail() {
  const std::size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << tail) - 1;
  }
}

}  // namespace nbx
