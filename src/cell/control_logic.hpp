// control_logic.hpp — LUT-based ALU-control decision logic (future work 1).
//
// Paper §7: "Our foremost future work is to convert the entire processor
// cell, including the router and alu-control modules, into lookup tables.
// In this way, we can expand our fault injection experiments and analyze
// the effect of high fault rates on control logic."
//
// We implement that extension: the nbox-aluctrl decisions of §3.3 — the
// majority votes over the triplicated data-valid and to-be-computed
// fields — and the router's destination comparison run through coded
// LUTs whose bit strings receive injected faults, so control faults can
// skip instructions, recompute finished ones, or misroute packets.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "cell/memory_word.hpp"
#include "cell/packet.hpp"
#include "common/rng.hpp"
#include "fault/mask_generator.hpp"
#include "lut/coded_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// Routing decisions of the nbox-router (paper §3.3, five cases).
enum class RouteDecision : std::uint8_t {
  kKeepHere,
  kSendLeft,
  kSendRight,
  kSendUp,
  kSendDown,
};

/// Pure (fault-free) routing rule: columns decrease moving right, rows
/// decrease moving down/away from the control processor; column is
/// resolved before row (the paper's case order).
RouteDecision golden_route(CellId self, CellId dest);

/// The cell's LUT-implemented control decisions, with optional fault
/// injection on the control LUT bit strings.
class ControlLogic {
 public:
  /// `coding` — bit-level protection of the control LUTs;
  /// `fault_percent` — fraction of control-LUT bits flipped per decision
  /// (0 = fault-free, the paper's baseline behaviour).
  explicit ControlLogic(LutCoding coding, double fault_percent = 0.0,
                        std::uint64_t seed = 1);

  /// Majority-votes a triplicated field through the valid-vote LUT.
  [[nodiscard]] bool vote_field(const std::array<bool, 3>& field);

  /// Full aluctrl gate: should this word be computed now?
  /// (valid majority AND pending majority, each through its LUT.)
  [[nodiscard]] bool should_compute(const MemoryWord& w);

  /// Routing decision through comparison LUTs. Compares dest/self row
  /// and column bit-serially through faultable comparator LUTs, then
  /// applies the five-way rule.
  [[nodiscard]] RouteDecision route(CellId self, CellId dest);

  /// Decisions made so far (for telemetry).
  [[nodiscard]] std::uint64_t decisions() const { return decisions_; }
  /// Decisions that differed from the golden rule (only counted when
  /// faults are enabled).
  [[nodiscard]] std::uint64_t corrupted_decisions() const {
    return corrupted_;
  }

  /// Total control-LUT fault sites.
  [[nodiscard]] std::size_t fault_sites() const {
    return block_.fault_sites();
  }

 private:
  LutBlock<CodedLut> block_;  // [0] valid vote, [1] pending vote,
                              // [2] cmp greater, [3] cmp less
  MaskGenerator gen_;
  Rng rng_;
  BitVec mask_;
  std::uint64_t decisions_ = 0;
  std::uint64_t corrupted_ = 0;

  [[nodiscard]] bool read_lut(std::size_t idx, std::uint32_t addr);
  void fresh_mask();

  /// 4-bit magnitude comparison, MSB first, through the two comparator
  /// LUTs (greater-flag and less-flag state updates). Returns
  /// {a > b, a < b} as decided by the (possibly faulted) LUTs.
  [[nodiscard]] std::pair<bool, bool> compare4(std::uint8_t a,
                                               std::uint8_t b);
};

}  // namespace nbx
