#include "alu/lut_core_alu.hpp"

namespace nbx {

LutCoreAlu::LutCoreAlu(LutCoding coding)
    : coding_(coding), block_(plan::slice_block<CodedLut>(kWordBits, coding)) {}

std::uint8_t LutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                              MaskView mask, obs::Counters* sink) const {
  return eval(op, a, b, mask, sink, nullptr);
}

std::uint8_t LutCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                              MaskView mask, obs::Counters* sink,
                              std::uint64_t* tmr_disagreements) const {
  std::uint32_t value = 0;
  plan::compute_slices(
      plan::ScalarSliceExec<CodedLut>{block_, mask, sink, tmr_disagreements,
                                      &value},
      op, a, b, kWordBits);
  return static_cast<std::uint8_t>(value);
}

}  // namespace nbx
