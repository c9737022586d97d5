#include "alu/slice_plan.hpp"

#include "lut/truth_table.hpp"

namespace nbx {

// Address bit j is LUT input j (see the header's slice table).

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

}  // namespace nbx
