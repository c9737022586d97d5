#include "coding/reed_solomon.hpp"

#include <cassert>

#include "coding/gf16.hpp"

namespace nbx {

namespace {

// g(x) = (x - a)(x - a^2) = x^2 + g1 x + g0 over GF(16):
// g1 = a + a^2 = 0x6, g0 = a^3 = 0x8.
constexpr std::uint8_t kG1 = 0x6;
constexpr std::uint8_t kG0 = 0x8;

std::uint8_t nibble(const BitVec& bits, std::size_t symbol) {
  return static_cast<std::uint8_t>(bits.extract(symbol * 4, 4));
}

void set_nibble(BitVec& bits, std::size_t symbol, std::uint8_t v) {
  bits.deposit(symbol * 4, 4, v & 0xF);
}

}  // namespace

Rs16Code::Rs16Code(std::size_t data_bits) : data_bits_(data_bits) {
  assert(data_bits % 4 == 0);
  assert(data_bits / 4 + 2 <= 15 && "RS over GF(16) caps n at 15 symbols");
}

BitVec Rs16Code::generate_check_bits(const BitVec& data) const {
  assert(data.size() == data_bits_);
  // Remainder of m(x)·x^2 by g(x), synthetic division, high degree first.
  // Codeword c_j for j >= 2 holds data symbol j-2, i.e. the dividend
  // coefficient at degree j is data nibble j-2.
  std::uint8_t r1 = 0;  // remainder coefficient of x^1
  std::uint8_t r0 = 0;  // remainder coefficient of x^0
  for (std::size_t i = data_symbols(); i-- > 0;) {
    const std::uint8_t coef = gf16::add(nibble(data, i), r1);
    // Shift remainder up one degree and subtract coef * g(x).
    r1 = gf16::add(r0, gf16::mul(coef, kG1));
    r0 = gf16::mul(coef, kG0);
  }
  BitVec checks(8);
  checks.deposit(0, 4, r0);  // c_0
  checks.deposit(4, 4, r1);  // c_1
  return checks;
}

RsStatus Rs16Code::detect_and_correct(BitVec& data,
                                      const BitVec& stored_checks) const {
  assert(data.size() == data_bits_);
  assert(stored_checks.size() == 8);
  // Syndromes S_t = sum_j c_j * a^(t*j) over the codeword coefficients:
  // the parity symbols c_0, c_1, then data nibble i at c_{2+i}.
  std::uint8_t s1 = 0;
  std::uint8_t s2 = 0;
  const auto add = [&](std::size_t j, std::uint8_t c) {
    s1 = gf16::add(s1, gf16::mul(c, gf16::pow_alpha(static_cast<int>(j))));
    s2 = gf16::add(
        s2, gf16::mul(c, gf16::pow_alpha(static_cast<int>(2 * j))));
  };
  add(0, nibble(stored_checks, 0));
  add(1, nibble(stored_checks, 1));
  for (std::size_t i = 0; i < data_symbols(); ++i) {
    add(2 + i, nibble(data, i));
  }
  if (s1 == 0 && s2 == 0) {
    return RsStatus::kNoError;
  }
  if (s1 == 0 || s2 == 0) {
    // A single error of magnitude e != 0 makes both syndromes nonzero;
    // one zero syndrome means >= 2 symbol errors.
    return RsStatus::kUncorrectable;
  }
  const int j = (gf16::log_alpha(s2) - gf16::log_alpha(s1) + gf16::kOrder) %
                gf16::kOrder;
  if (static_cast<std::size_t>(j) >= codeword_symbols()) {
    return RsStatus::kUncorrectable;  // locator outside the codeword
  }
  const std::uint8_t e = gf16::div(s1, gf16::pow_alpha(j));
  if (j >= 2) {
    const std::size_t symbol = static_cast<std::size_t>(j) - 2;
    set_nibble(data, symbol, gf16::add(nibble(data, symbol), e));
  }
  // j < 2: a parity-symbol error; the data is already intact.
  return RsStatus::kCorrected;
}

}  // namespace nbx
