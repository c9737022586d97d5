#include "alu/hw_core_alu.hpp"

#include "alu/nanobox_tables.hpp"

namespace nbx {

HwLutCoreAlu::HwLutCoreAlu() {
  luts_.reserve(kLutCount);
  offsets_.reserve(kLutCount);
  std::size_t off = 0;
  for (std::size_t slice = 0; slice < 8; ++slice) {
    for (const auto& make :
         {&nanobox_logic_table, &nanobox_sum_table, &nanobox_carry_table,
          &nanobox_select_table}) {
      luts_.emplace_back(make());
      offsets_.push_back(off);
      off += luts_.back().fault_sites();
    }
  }
  sites_ = off;
}

std::size_t HwLutCoreAlu::storage_sites() const {
  return kLutCount * luts_[0].storage_sites();
}

bool HwLutCoreAlu::read_lut(std::size_t slice, Role r, std::uint32_t addr,
                            MaskView mask) const {
  const std::size_t i = slice * 4 + r;
  const MaskView m = mask.is_null()
                         ? MaskView{}
                         : mask.subview(offsets_[i], luts_[i].fault_sites());
  return luts_[i].read(addr, m);
}

std::uint8_t HwLutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                MaskView mask, obs::Counters* sink) const {
  (void)sink;  // gate-level TMR reads report no code-layer anatomy
  const auto opbits = static_cast<std::uint32_t>(op);
  const bool op0 = opbits & 1u;
  const bool op1 = opbits & 2u;
  const bool op2 = opbits & 4u;
  std::uint8_t result = 0;
  bool cin = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool ai = (a >> i) & 1u;
    const bool bi = (b >> i) & 1u;
    const std::uint32_t ab = (ai ? 1u : 0u) | (bi ? 2u : 0u);
    const std::uint32_t l_addr = ab | (op0 ? 4u : 0u) | (op1 ? 8u : 0u);
    const bool l = read_lut(i, kLogic, l_addr, mask);
    const std::uint32_t sc_addr = ab | (cin ? 4u : 0u) | (op2 ? 8u : 0u);
    const bool s = read_lut(i, kSum, sc_addr, mask);
    const bool c = read_lut(i, kCarry, sc_addr, mask);
    const std::uint32_t o_addr =
        (op2 ? 1u : 0u) | (l ? 2u : 0u) | (s ? 4u : 0u);
    const bool o = read_lut(i, kSelect, o_addr, mask);
    result |= static_cast<std::uint8_t>(o ? (1u << i) : 0u);
    cin = c;
  }
  return result;
}

}  // namespace nbx
