// hsiao.hpp — Hsiao odd-weight-column SEC-DED code (extension study).
//
// The paper lists Hsiao among candidate information codes for coded lookup
// tables (§2.1) but evaluates only plain Hamming. We implement Hsiao
// SEC-DED as an extension so the ablation bench can test whether
// double-error *detection* (refusing to miscorrect) rescues information
// coding at high fault rates — probing the paper's conclusion that
// information codes are a poor fit for bit-level LUT protection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"

namespace nbx {

/// Outcome of a Hsiao decode.
enum class HsiaoStatus : std::uint8_t {
  kNoError,         ///< zero syndrome
  kCorrected,       ///< odd-weight syndrome matching a column; bit fixed
  kDoubleDetected,  ///< even-weight nonzero syndrome — 2-bit error, no fix
  kUncorrectable,   ///< odd-weight syndrome matching no column
};

/// Hsiao (odd-weight-column) SEC-DED code for `data_bits`-wide words.
///
/// The parity-check matrix H has one column per codeword bit; every column
/// has odd weight and all columns are distinct. Check-bit columns are the
/// unit vectors. Properties: any single error yields a syndrome equal to
/// its column (odd weight, correctable); any double error yields a nonzero
/// even-weight syndrome (detected, never miscorrected).
class HsiaoCode {
 public:
  explicit HsiaoCode(std::size_t data_bits);

  [[nodiscard]] std::size_t data_bits() const { return data_bits_; }
  [[nodiscard]] std::size_t check_bits() const { return check_bits_; }
  [[nodiscard]] std::size_t codeword_bits() const {
    return data_bits_ + check_bits_;
  }

  /// Check-bit generator: checks = H_data * data.
  [[nodiscard]] BitVec generate_check_bits(const BitVec& data) const;

  /// Error detector + corrector. `data` and `stored_checks` are the
  /// possibly faulted stored strings; `data` is corrected in place only
  /// for a confirmed single data-bit error.
  HsiaoStatus detect_and_correct(BitVec& data,
                                 const BitVec& stored_checks) const;

  /// H column (bitmask over the check bits) of data bit `index`; check
  /// bit j's column is the unit vector 1 << j.
  [[nodiscard]] std::uint32_t data_column(std::size_t index) const {
    return data_cols_[index];
  }

  /// Minimum check bits for SEC-DED over `data_bits`: smallest r such that
  /// the number of available distinct odd-weight r-columns, excluding the
  /// r unit vectors, is at least data_bits.
  static std::size_t check_bits_for(std::size_t data_bits);

 private:
  std::size_t data_bits_;
  std::size_t check_bits_;
  std::vector<std::uint32_t> data_cols_;  // H column (bitmask) per data bit

  [[nodiscard]] std::uint32_t syndrome_of(const BitVec& data,
                                          const BitVec& checks) const;
};

}  // namespace nbx
