#include "alu/wide_alu.hpp"

#include <cassert>

#include "alu/nanobox_tables.hpp"

namespace nbx {

WideLutAlu::WideLutAlu(std::size_t width, LutCoding coding)
    : width_(width), coding_(coding) {
  assert(width >= 1 && width <= 32);
  luts_.reserve(width * 4);
  offsets_.reserve(width * 4);
  std::size_t off = 0;
  for (std::size_t slice = 0; slice < width; ++slice) {
    for (const auto& make :
         {&nanobox_logic_table, &nanobox_sum_table, &nanobox_carry_table,
          &nanobox_select_table}) {
      luts_.emplace_back(make(), coding_);
      offsets_.push_back(off);
      off += luts_.back().fault_sites();
    }
  }
  sites_ = off;
}

std::uint32_t WideLutAlu::value_mask() const {
  return width_ == 32 ? 0xFFFFFFFFu : ((1u << width_) - 1u);
}

std::uint32_t WideLutAlu::golden(Opcode op, std::uint32_t a,
                                 std::uint32_t b) const {
  const std::uint32_t m = value_mask();
  a &= m;
  b &= m;
  switch (op) {
    case Opcode::kAnd:
      return a & b;
    case Opcode::kOr:
      return a | b;
    case Opcode::kXor:
      return a ^ b;
    case Opcode::kAdd:
      return (a + b) & m;
  }
  return 0;
}

std::uint32_t WideLutAlu::eval(Opcode op, std::uint32_t a, std::uint32_t b,
                               MaskView mask, obs::Counters* sink) const {
  const auto opbits = static_cast<std::uint32_t>(op);
  const bool op0 = opbits & 1u;
  const bool op1 = opbits & 2u;
  const bool op2 = opbits & 4u;
  auto lut_mask = [&](std::size_t index) {
    return mask.is_null()
               ? MaskView{}
               : mask.subview(offsets_[index], luts_[index].fault_sites());
  };
  std::uint32_t result = 0;
  bool cin = false;
  for (std::size_t i = 0; i < width_; ++i) {
    const bool ai = (a >> i) & 1u;
    const bool bi = (b >> i) & 1u;
    const std::uint32_t ab = (ai ? 1u : 0u) | (bi ? 2u : 0u);
    const std::size_t base = i * 4;
    const std::uint32_t l_addr = ab | (op0 ? 4u : 0u) | (op1 ? 8u : 0u);
    const bool l =
        luts_[base + kLogic].read(l_addr, lut_mask(base + kLogic), sink);
    const std::uint32_t sc_addr = ab | (cin ? 4u : 0u) | (op2 ? 8u : 0u);
    const bool s =
        luts_[base + kSum].read(sc_addr, lut_mask(base + kSum), sink);
    const bool c =
        luts_[base + kCarry].read(sc_addr, lut_mask(base + kCarry), sink);
    const std::uint32_t o_addr =
        (op2 ? 1u : 0u) | (l ? 2u : 0u) | (s ? 4u : 0u);
    const bool o = luts_[base + kSelect].read(o_addr,
                                              lut_mask(base + kSelect),
                                              sink);
    result |= o ? (1u << i) : 0u;
    cin = c;
  }
  return result;
}

}  // namespace nbx
