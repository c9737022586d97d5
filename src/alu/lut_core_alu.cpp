#include "alu/lut_core_alu.hpp"

#include "alu/nanobox_tables.hpp"
#include "lut/truth_table.hpp"

namespace nbx {

// Address bit packing: address bit 0 is LUT input 0 (see header).

// L: (a, b, op0, op1) -> op1op0 = 00: a&b, 01: a|b, 10: a^b, 11: a^b.
// (The 11 row is the ADD encoding's low bits; its value is the carry-
// propagate a^b, unused by the select LUT when op2 = 1 chooses the sum.)
BitVec nanobox_logic_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool op0 = in & 4u;
    const bool op1 = in & 8u;
    if (!op1 && !op0) {
      return a && b;
    }
    if (!op1 && op0) {
      return a || b;
    }
    return a != b;
  });
}

// S: (a, b, cin, op2) -> full-adder sum; op2 is a don't-care input that
// fills the 4-input table.
BitVec nanobox_sum_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool cin = in & 4u;
    return (a != b) != cin;
  });
}

// C: (a, b, cin, op2) -> op2 & carry-out, so the ripple chain is forced
// to zero for the logic opcodes.
BitVec nanobox_carry_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool a = in & 1u;
    const bool b = in & 2u;
    const bool cin = in & 4u;
    const bool op2 = in & 8u;
    return op2 && ((a && b) || (cin && (a != b)));
  });
}

// O: (op2, L, S, 0) -> op2 ? S : L. Input 3 is tied to constant zero.
BitVec nanobox_select_table() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool op2 = in & 1u;
    const bool l = in & 2u;
    const bool s = in & 4u;
    return op2 ? s : l;
  });
}

LutCoreAlu::LutCoreAlu(LutCoding coding) : coding_(coding) {
  luts_.reserve(kLutCount);
  offsets_.reserve(kLutCount);
  std::size_t off = 0;
  for (std::size_t slice = 0; slice < 8; ++slice) {
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

BitVec LutCoreAlu::golden_storage() const {
  BitVec bits(sites_);
  for (std::size_t i = 0; i < luts_.size(); ++i) {
    const BitVec stored = luts_[i].stored_bits();
    for (std::size_t b = 0; b < stored.size(); ++b) {
      bits.set(offsets_[i] + b, stored.get(b));
    }
  }
  return bits;
}

MaskView LutCoreAlu::lut_mask(MaskView mask, std::size_t slice,
                              Role r) const {
  if (mask.is_null()) {
    return {};
  }
  const std::size_t i = slice * 4 + r;
  return mask.subview(offsets_[i], luts_[i].fault_sites());
}

std::uint8_t LutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                              MaskView mask, obs::Counters* sink) const {
  return eval(op, a, b, mask, sink, nullptr);
}

std::uint8_t LutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                              MaskView mask, obs::Counters* sink,
                              std::uint64_t* tmr_disagreements) const {
  const auto opbits = static_cast<std::uint32_t>(op);
  const bool op0 = opbits & 1u;
  const bool op1 = opbits & 2u;
  const bool op2 = opbits & 4u;
  const auto read = [&](std::size_t slice, Role r, std::uint32_t addr) {
    return lut(slice, r).read(addr, lut_mask(mask, slice, r), sink,
                              tmr_disagreements);
  };

  std::uint8_t result = 0;
  bool cin = false;
  for (std::size_t i = 0; i < 8; ++i) {
    const bool ai = (a >> i) & 1u;
    const bool bi = (b >> i) & 1u;
    const std::uint32_t ab = (ai ? 1u : 0u) | (bi ? 2u : 0u);

    const std::uint32_t l_addr = ab | (op0 ? 4u : 0u) | (op1 ? 8u : 0u);
    const bool l = read(i, kLogic, l_addr);

    const std::uint32_t sc_addr = ab | (cin ? 4u : 0u) | (op2 ? 8u : 0u);
    const bool s = read(i, kSum, sc_addr);
    const bool c = read(i, kCarry, sc_addr);

    const std::uint32_t o_addr =
        (op2 ? 1u : 0u) | (l ? 2u : 0u) | (s ? 4u : 0u);
    const bool o = read(i, kSelect, o_addr);

    result |= static_cast<std::uint8_t>(o ? (1u << i) : 0u);
    cin = c;
  }
  return result;
}

}  // namespace nbx
