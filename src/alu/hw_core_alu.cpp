#include "alu/hw_core_alu.hpp"

namespace nbx {

HwLutCoreAlu::HwLutCoreAlu()
    : block_(plan::slice_block<HwTmrLut>(kWordBits)) {}

std::uint8_t HwLutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                MaskView mask, obs::Counters* sink) const {
  (void)sink;  // gate-level TMR reads report no code-layer anatomy
  std::uint32_t value = 0;
  plan::compute_slices(
      plan::ScalarSliceExec<HwTmrLut>{block_, mask, nullptr, nullptr, &value},
      op, a, b, kWordBits);
  return static_cast<std::uint8_t>(value);
}

}  // namespace nbx
