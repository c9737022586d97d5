// bitvec.hpp — dynamic bit vector used for LUT bit strings and fault masks.
//
// The NanoBox fault-injection model (paper §4, Figure 6) flips stored state
// by XORing a randomly generated mask onto "bit strings": the truth-table
// contents of lookup tables, the nodes of a gate-level netlist, or the
// stored inter-operation results of a time-redundant ALU. BitVec is the one
// representation all of those share.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nbx {

/// A fixed-size (after construction) vector of bits with word-parallel
/// bulk operations. Bits are indexed from 0; out-of-range access is a
/// programmer error checked by assertions in debug builds.
class BitVec {
 public:
  BitVec() = default;

  /// Creates a vector of `n` bits, all zero.
  explicit BitVec(std::size_t n) : size_(n), words_((n + 63) / 64, 0) {}

  /// Creates a vector from a string of '0'/'1' characters, MSB-first
  /// convenience for tests: "1011" => bit3=1, bit2=0, bit1=1, bit0=1.
  static BitVec from_string(const std::string& s);

  /// Number of bits.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Reads bit `i`.
  [[nodiscard]] bool get(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  /// Writes bit `i`.
  void set(std::size_t i, bool v) {
    const std::uint64_t m = std::uint64_t{1} << (i & 63);
    if (v) {
      words_[i >> 6] |= m;
    } else {
      words_[i >> 6] &= ~m;
    }
  }

  /// Flips bit `i` (the fundamental fault-injection primitive).
  void flip(std::size_t i) { words_[i >> 6] ^= std::uint64_t{1} << (i & 63); }

  /// XORs `other` into this vector; sizes must match. This is the paper's
  /// Figure 6 operation: state ^= fault_mask.
  void xor_with(const BitVec& other);

  /// Number of set bits.
  [[nodiscard]] std::size_t popcount() const;

  /// Sets every bit to zero without reallocating.
  void clear_all();

  /// True if any bit is set.
  [[nodiscard]] bool any() const;

  /// True if any bit in [lo, lo+n) is set; a word at a time.
  [[nodiscard]] bool any_in(std::size_t lo, std::size_t n) const;

  /// Equality compares size and every bit.
  friend bool operator==(const BitVec& a, const BitVec& b) {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

  /// MSB-first string rendering, inverse of from_string.
  [[nodiscard]] std::string to_string() const;

  /// Extracts bits [lo, lo+n) as an integer, bit lo = LSB. n must be <= 64.
  [[nodiscard]] std::uint64_t extract(std::size_t lo, std::size_t n) const;

  /// Deposits the low `n` bits of `v` at [lo, lo+n). n must be <= 64.
  void deposit(std::size_t lo, std::size_t n, std::uint64_t v);

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;

  void mask_tail();
};

}  // namespace nbx
