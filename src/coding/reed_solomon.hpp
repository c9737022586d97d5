// reed_solomon.hpp — single-symbol-correcting Reed-Solomon code over
// GF(16), the third information code the paper lists for coded lookup
// tables ("Hamming, Hsiao, Reed-Solomon, etc." §2.1) but never
// evaluates.
//
// A 16-bit truth-table string becomes four 4-bit symbols plus two parity
// symbols (RS with n = k+2 <= 15 over GF(16)): any corruption confined
// to ONE symbol — up to four adjacent bit flips — is corrected. That
// makes RS the natural counterpoint to the burst-fault ablation: a
// clustered strike that defeats Hamming is a single-symbol error here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/bitvec.hpp"

namespace nbx {

/// Decode outcome of the RS(k+2, k) code.
enum class RsStatus : std::uint8_t {
  kNoError,        ///< both syndromes zero
  kCorrected,      ///< single-symbol error located and repaired
  kUncorrectable,  ///< syndromes inconsistent with any single-symbol
                   ///< error — >= 2 symbols corrupted, word untouched
};

/// Systematic Reed-Solomon code over GF(16) with two parity symbols
/// (single-symbol correction). Data width must be a multiple of 4 bits;
/// data symbols k = data_bits/4 with k + 2 <= 15.
///
/// Codeword polynomial layout: c(x) = m(x)·x^2 + r(x) with
/// g(x) = (x - a)(x - a^2); coefficients c_0, c_1 are the parity
/// symbols, c_2..c_{k+1} the data symbols (data nibble i at c_{2+i}).
/// Syndromes S_t = c(a^t) for t = 1, 2; a single error of magnitude e at
/// position j gives S1 = e·a^j, S2 = e·a^{2j}, so j = log(S2/S1).
class Rs16Code {
 public:
  explicit Rs16Code(std::size_t data_bits);

  [[nodiscard]] std::size_t data_bits() const { return data_bits_; }
  [[nodiscard]] std::size_t check_bits() const { return 8; }
  [[nodiscard]] std::size_t data_symbols() const { return data_bits_ / 4; }
  [[nodiscard]] std::size_t codeword_symbols() const {
    return data_symbols() + 2;
  }

  /// Computes the two parity symbols (8 check bits) for `data`.
  [[nodiscard]] BitVec generate_check_bits(const BitVec& data) const;

  /// Syndrome decode: corrects a single-symbol error in `data` in place
  /// (parity-symbol errors leave data untouched); flags anything beyond
  /// one symbol as uncorrectable.
  RsStatus detect_and_correct(BitVec& data, const BitVec& stored_checks) const;

 private:
  std::size_t data_bits_;
};

}  // namespace nbx
