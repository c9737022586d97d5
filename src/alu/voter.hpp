// voter.hpp — module-level majority voters (paper §2.2, §4).
//
// "we do model module-level error detector and corrector faults by using a
// lookup table for the module voter. This module voter lookup table, as
// with the lookup tables within the ALU, has errors injected on its bit
// string."
//
// Two families:
//   * LutVoter  — nine 4-input LUTs: one per-bit 3-way majority LUT for
//     each of the eight result bits, plus a ninth LUT that votes the three
//     replica data-valid flags. With the pass-matching bit-level coding
//     this yields 144 / 189 / 432 fault sites (none / Hamming / TMR),
//     completing Table 2's alus* and alut* counts exactly.
//   * CmosVoter — gate-level voter for the CMOS module ALUs: per bit a
//     majority network plus mismatch detection (10 nodes), and one global
//     8-input OR that raises the module error line — 81 nodes.
#pragma once

#include <array>
#include <cstdint>

#include "alu/alu_iface.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// Inputs to a module vote: three replica results and their valid flags.
/// (Valid flags are 1 in normal operation; time redundancy can lose them
/// to faults in the stored inter-operation results.)
struct VoteInput {
  std::uint8_t x = 0;
  std::uint8_t y = 0;
  std::uint8_t z = 0;
  bool vx = true;
  bool vy = true;
  bool vz = true;
};

/// Result of a module vote.
struct VoteOutput {
  std::uint8_t value = 0;
  bool valid = true;
  bool disagreement = false;  ///< any replica differed from another
};

/// Abstract module voter. Like the ALUs, a voter is a pure function of
/// (inputs, fault-mask segment).
class IVoter {
 public:
  virtual ~IVoter() = default;

  [[nodiscard]] virtual std::size_t fault_sites() const = 0;

  /// Votes `in` under fault overlay `mask`; `sink` is the fault anatomy
  /// (not owned; null = off).
  [[nodiscard]] virtual VoteOutput vote(const VoteInput& in, MaskView mask,
                                        obs::Counters* sink) const = 0;

  /// Golden stored bits for storage-based voters (LUT voters); empty for
  /// the gate-level CMOS voter (no defectable storage).
  [[nodiscard]] virtual BitVec golden_storage() const { return {}; }
};

/// Nine-LUT NanoBox voter with a selectable bit-level coding.
class LutVoter : public IVoter {
 public:
  explicit LutVoter(LutCoding coding);

  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] std::size_t fault_sites() const override {
    return block_.fault_sites();
  }

  [[nodiscard]] VoteOutput vote(const VoteInput& in, MaskView mask,
                                obs::Counters* sink) const override;

  [[nodiscard]] BitVec golden_storage() const override {
    return block_.golden_storage();
  }

  static constexpr std::size_t kLutCount = 9;

  /// The LUTs (bit-majority LUTs 0..7, valid-majority LUT 8), for the
  /// wide engine's mirror.
  [[nodiscard]] const LutBlock<CodedLut>& block() const { return block_; }

 private:
  LutCoding coding_;
  LutBlock<CodedLut> block_;
};

/// Gate-level voter for the CMOS module ALUs (81 nodes).
class CmosVoter : public IVoter {
 public:
  CmosVoter();

  [[nodiscard]] std::size_t fault_sites() const override;

  [[nodiscard]] VoteOutput vote(const VoteInput& in, MaskView mask,
                                obs::Counters* sink) const override;

  [[nodiscard]] const Netlist& netlist() const { return net_; }

  /// Output signals, for the batched engine's mirror.
  [[nodiscard]] Signal majority_signal(std::size_t i) const {
    return maj_[i];
  }
  [[nodiscard]] Signal error_signal() const { return err_; }

 private:
  Netlist net_;
  std::array<Signal, 8> maj_;  // buffered per-bit majority outputs
  Signal err_;                 // global error (any-bit mismatch) line
};

}  // namespace nbx
