// hw_core_alu.hpp — the NanoBox TMR ALU with *hardware* lookup tables.
//
// Identical slice structure to LutCoreAlu(kTmr) (the shared slice plan,
// alu/slice_plan.hpp), but each of the 32 coded LUTs is a gate-level
// HwTmrLut whose read path (address decoder, per-copy mux, majority
// corrector) is itself fault-injectable. This removes the paper's §4
// idealization ("we do not model faults in the lookup table error
// detector or corrector"): per LUT the site space is 48 storage cells +
// 76 read-path gate nodes = 124, so the ALU totals 32 x 124 = 3968 sites.
#pragma once

#include <cstdint>

#include "alu/alu_iface.hpp"
#include "alu/slice_plan.hpp"
#include "lut/hw_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// Gate-level TMR NanoBox ALU (the "hw" extension bit level).
class HwLutCoreAlu : public CoreAlu {
 public:
  HwLutCoreAlu();

  [[nodiscard]] std::size_t fault_sites() const override {
    return block_.fault_sites();
  }

  [[nodiscard]] std::uint8_t eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;

  /// Storage cells only (the subset the paper's model faulted).
  [[nodiscard]] std::size_t storage_sites() const {
    return kLutCount * block_.lut(0).storage_sites();
  }

  static constexpr std::size_t kLutCount = kWordBits * plan::kLutsPerSlice;

  /// The LUTs in slice-major role order, as LutCoreAlu's (the wide lane
  /// engine mirrors them).
  [[nodiscard]] const LutBlock<HwTmrLut>& block() const { return block_; }

 private:
  LutBlock<HwTmrLut> block_;
};

}  // namespace nbx
