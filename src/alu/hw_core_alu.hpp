// hw_core_alu.hpp — the NanoBox TMR ALU with *hardware* lookup tables.
//
// Identical slice structure to LutCoreAlu(kTmr), but each of the 32
// coded LUTs is a gate-level HwTmrLut whose read path (address decoder,
// per-copy mux, majority corrector) is itself fault-injectable. This
// removes the paper's §4 idealization ("we do not model faults in the
// lookup table error detector or corrector"): per LUT the site space is
// 48 storage cells + 76 read-path gate nodes = 124, so the ALU totals
// 32 x 124 = 3968 sites.
#pragma once

#include <vector>

#include "alu/alu_iface.hpp"
#include "lut/hw_lut.hpp"

namespace nbx {

/// Gate-level TMR NanoBox ALU (the "hw" extension bit level).
class HwLutCoreAlu : public CoreAlu {
 public:
  HwLutCoreAlu();

  [[nodiscard]] std::size_t fault_sites() const override { return sites_; }

  [[nodiscard]] std::uint8_t eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;

  /// Storage cells only (the subset the paper's model faulted).
  [[nodiscard]] std::size_t storage_sites() const;

  static constexpr std::size_t kLutCount = 32;

  /// The LUTs and their site offsets in slice-major role order, as
  /// LutCoreAlu's (the wide lane engine mirrors them).
  [[nodiscard]] const HwTmrLut& lut_at(std::size_t i) const {
    return luts_[i];
  }
  [[nodiscard]] std::size_t lut_offset(std::size_t i) const {
    return offsets_[i];
  }

 private:
  enum Role : std::size_t { kLogic = 0, kSum = 1, kCarry = 2, kSelect = 3 };

  std::vector<HwTmrLut> luts_;        // slice-major then role
  std::vector<std::size_t> offsets_;  // site offset per LUT
  std::size_t sites_;

  [[nodiscard]] bool read_lut(std::size_t slice, Role r, std::uint32_t addr,
                              MaskView mask) const;
};

}  // namespace nbx
