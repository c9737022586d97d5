#include "alu/wide_alu.hpp"

#include <cassert>

#include "alu/slice_plan.hpp"

namespace nbx {

WideLutAlu::WideLutAlu(std::size_t width, LutCoding coding)
    : width_(width),
      coding_(coding),
      block_(plan::slice_block<CodedLut>(width, coding)) {
  assert(width >= 1 && width <= 32);
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
  std::uint32_t value = 0;
  plan::compute_slices(
      plan::ScalarSliceExec<CodedLut>{block_, mask, sink, nullptr, &value}, op,
      a, b, width_);
  return value;
}

}  // namespace nbx
