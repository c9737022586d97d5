// lut_core_alu.hpp — the NanoBox LUT-based 8-bit ALU datapath.
//
// Structure (decoded from Table 2's site counts — see DESIGN.md §2): eight
// ripple-carry bit slices, each built from four 4-input (16-bit) lookup
// tables, 32 LUTs total:
//
//   LUT L ("logic")  in: (a_i, b_i, op0, op1)      out: AND/OR/XOR of a,b
//   LUT S ("sum")    in: (a_i, b_i, cin_i, op2)    out: a ^ b ^ cin
//   LUT C ("carry")  in: (a_i, b_i, cin_i, op2)    out: op2 & majority carry
//   LUT O ("select") in: (op2, L_i, S_i, 0)        out: op2 ? S_i : L_i
//
// Site counts: 32*16 = 512 (no code) / 32*21 = 672 (Hamming) /
// 32*48 = 1536 (TMR) — exactly alunn / alunh / aluns.
//
// Site layout within a pass: slices 0..7 in order; within a slice L, S,
// C, O; each LUT's stored bits contiguous.
#pragma once

#include <array>
#include <memory>
#include <vector>

#include "alu/alu_iface.hpp"
#include "lut/coded_lut.hpp"

namespace nbx {

/// The NanoBox LUT ALU with a selectable bit-level coding.
class LutCoreAlu : public CoreAlu {
 public:
  explicit LutCoreAlu(LutCoding coding);

  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] std::size_t fault_sites() const override { return sites_; }

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
  [[nodiscard]] BitVec golden_storage() const override;

  /// Number of LUTs in the datapath (8 slices x 4).
  static constexpr std::size_t kLutCount = 32;

  /// The underlying LUTs and their site offsets, in slice-major role
  /// order (exposed so the wide lane engine can mirror this exact
  /// structure — see simd/wide_mirror.cpp).
  [[nodiscard]] const CodedLut& lut_at(std::size_t i) const {
    return luts_[i];
  }
  [[nodiscard]] std::size_t lut_offset(std::size_t i) const {
    return offsets_[i];
  }

 private:
  // Index of each LUT role within a slice.
  enum Role : std::size_t { kLogic = 0, kSum = 1, kCarry = 2, kSelect = 3 };

  LutCoding coding_;
  std::vector<CodedLut> luts_;          // 32, slice-major then role
  std::vector<std::size_t> offsets_;    // site offset of each LUT
  std::size_t sites_;

  [[nodiscard]] const CodedLut& lut(std::size_t slice, Role r) const {
    return luts_[slice * 4 + r];
  }
  [[nodiscard]] MaskView lut_mask(MaskView mask, std::size_t slice,
                                  Role r) const;
};

}  // namespace nbx
