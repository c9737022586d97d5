// wide_alu.hpp — a width-parameterized NanoBox LUT datapath.
//
// The paper fixes the datapath at 8 bits but calls nearly every other
// dimension arbitrary (§3.1 grid size, §3.3 memory size). Width is the
// interesting scaling knob for reliability: at a fixed per-site fault
// percentage a W-bit ripple datapath carries W x (4 LUT) slices of
// state, so *per-instruction* fault exposure grows linearly with W and
// reliability falls with word size — quantified by bench_width.
//
// WideLutAlu runs LutCoreAlu's slice plan (alu/slice_plan.hpp) over any
// W in [1, 32] slices (operands/results in uint32). It is a standalone
// analysis datapath, deliberately outside the 8-bit IAlu hierarchy that
// mirrors the paper's Table 2.
#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "fault/mask_view.hpp"
#include "lut/coded_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// W-bit NanoBox LUT ALU (4 coded LUTs per bit slice).
class WideLutAlu {
 public:
  /// `width` in [1, 32]; `coding` as in LutCoreAlu.
  WideLutAlu(std::size_t width, LutCoding coding);

  [[nodiscard]] std::size_t width() const { return width_; }
  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] std::size_t fault_sites() const {
    return block_.fault_sites();
  }

  /// Result mask for this width (e.g. 0xFFFF for W=16).
  [[nodiscard]] std::uint32_t value_mask() const;

  /// Evaluates one instruction under fault overlay `mask` (size
  /// fault_sites(); null = fault-free). `sink` is the fault anatomy
  /// (not owned; null = off).
  [[nodiscard]] std::uint32_t eval(Opcode op, std::uint32_t a,
                                   std::uint32_t b, MaskView mask,
                                   obs::Counters* sink = nullptr) const;

  /// Golden W-bit semantics (ADD wraps modulo 2^W).
  [[nodiscard]] std::uint32_t golden(Opcode op, std::uint32_t a,
                                     std::uint32_t b) const;

 private:
  std::size_t width_;
  LutCoding coding_;
  LutBlock<CodedLut> block_;  // width x 4, slice-major
};

}  // namespace nbx
