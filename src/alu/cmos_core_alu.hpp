// cmos_core_alu.hpp — the conventional CMOS baseline ALU (aluncmos core).
//
// Paper §4 / Figure 6(b): faults are injected on "nodes between
// transistors", i.e. gate outputs, by XORing them with a fault mask. We
// model the ALU as a gate-level netlist of eight ripple-carry bit slices,
// each with its own function gates, opcode decode and 4-way AND-OR output
// mux — 24 nodes per slice, 192 nodes total, matching Table 2's aluncmos
// exactly (see DESIGN.md §2 for the per-slice node inventory).
#pragma once

#include <array>

#include "alu/alu_iface.hpp"
#include "gatesim/netlist.hpp"

namespace nbx {

/// Gate-level 8-bit, 4-instruction CMOS ALU.
class CmosCoreAlu : public CoreAlu {
 public:
  CmosCoreAlu();

  [[nodiscard]] std::size_t fault_sites() const override;

  [[nodiscard]] std::uint8_t eval(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;

  /// The underlying netlist (exposed for structural tests).
  [[nodiscard]] const Netlist& netlist() const { return net_; }

  /// Per-slice result signal, for the batched engine's mirror.
  [[nodiscard]] Signal result_signal(std::size_t i) const {
    return result_[i];
  }

  /// Nodes per bit slice in this construction.
  static constexpr std::size_t kNodesPerSlice = 24;

 private:
  Netlist net_;
  std::array<Signal, 8> result_;  // per-slice result nodes
};

}  // namespace nbx
