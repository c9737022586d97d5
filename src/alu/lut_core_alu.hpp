// lut_core_alu.hpp — the NanoBox LUT-based 8-bit ALU datapath.
//
// Eight ripple-carry bit slices of four coded 4-input LUTs, 32 LUTs in
// one LutBlock; the slice wiring and the site layout are the shared
// slice plan's (alu/slice_plan.hpp, DESIGN.md §2).
#pragma once

#include <cstdint>

#include "alu/alu_iface.hpp"
#include "alu/slice_plan.hpp"
#include "lut/coded_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// The NanoBox LUT ALU with a selectable bit-level coding.
class LutCoreAlu : public CoreAlu {
 public:
  explicit LutCoreAlu(LutCoding coding);

  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] std::size_t fault_sites() const override {
    return block_.fault_sites();
  }

  [[nodiscard]] std::uint8_t eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;

  /// eval() that also adds to `*tmr_disagreements` (null = off) every
  /// TMR read whose copies of the addressed bit disagreed — the
  /// detector the processor cell feeds its error threshold (§2.3); see
  /// CodedLut::read.
  [[nodiscard]] std::uint8_t eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask, obs::Counters* sink,
                                  std::uint64_t* tmr_disagreements) const;

  /// Concatenated golden stored bits of all 32 LUTs in site order.
  [[nodiscard]] BitVec golden_storage() const override {
    return block_.golden_storage();
  }

  /// Number of LUTs in the datapath (8 slices x 4).
  static constexpr std::size_t kLutCount = kWordBits * plan::kLutsPerSlice;

  /// The LUTs in slice-major role order (the wide lane engine mirrors
  /// this exact block — see simd/wide_mirror.cpp).
  [[nodiscard]] const LutBlock<CodedLut>& block() const { return block_; }

 private:
  LutCoding coding_;
  LutBlock<CodedLut> block_;
};

}  // namespace nbx
