// netlist.hpp — a small gate-level combinational netlist simulator.
//
// The paper's baseline ALUs ("aluncmos" etc.) are conventional CMOS
// designs; faults are injected "by XORing nodes between transistors with a
// fault mask" (Figure 6b). We model a combinational design as a DAG of
// gates; every gate output is one node and one fault-injection site, and
// evaluation overlays a per-computation MaskView that flips faulted nodes.
//
// The netlist is build-once / evaluate-many: construction order must be
// topological (a gate may only reference inputs, constants, or
// previously created gates), which the builder asserts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fault/mask_view.hpp"

namespace nbx {

/// Gate operators. kAndN / kOrN / kXorN apply over all fan-in signals
/// (a single multi-input gate is a single node / fault site, which is how
/// the paper's 8-input OR in the voter is counted).
enum class GateOp : std::uint8_t {
  kBuf,   ///< identity, 1 input — models a buffer/repeater node
  kNot,   ///< inverter, 1 input
  kAndN,  ///< AND over >= 2 inputs
  kOrN,   ///< OR over >= 2 inputs
  kXorN,  ///< XOR over >= 2 inputs
};

/// A reference to a value in the netlist: primary input, gate output node,
/// or constant.
class Signal {
 public:
  enum class Kind : std::uint8_t { kInput, kNode, kConstZero, kConstOne };

  Signal() = default;

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::uint32_t index() const { return index_; }

  static Signal input(std::uint32_t i) { return {Kind::kInput, i}; }
  static Signal node(std::uint32_t i) { return {Kind::kNode, i}; }
  static Signal zero() { return {Kind::kConstZero, 0}; }
  static Signal one() { return {Kind::kConstOne, 0}; }

 private:
  Signal(Kind k, std::uint32_t i) : kind_(k), index_(i) {}
  Kind kind_ = Kind::kConstZero;
  std::uint32_t index_ = 0;
};

/// A combinational netlist. Gate outputs are the fault-injection sites,
/// numbered in creation order (node i occupies mask bit i).
class Netlist {
 public:
  /// One gate of the DAG. Public so the lane-sliced evaluator outside
  /// this class (the wide lane engine's eval_netlist; see
  /// src/simd/lane_engine_inl.hpp) can walk the structure via gates().
  struct Gate {
    GateOp op;
    std::vector<Signal> fanin;
    std::string name;
  };

  /// Declares a primary input; `name` is for debugging/netlist dumps.
  Signal add_input(std::string name);

  /// Adds a gate; returns its output signal. Fan-in signals must already
  /// exist. Arity: kBuf/kNot exactly 1; others >= 2.
  Signal add_gate(GateOp op, std::vector<Signal> fanin,
                  std::string name = {});

  // Two-input conveniences.
  Signal and2(Signal a, Signal b, std::string name = {});
  Signal or2(Signal a, Signal b, std::string name = {});
  Signal xor2(Signal a, Signal b, std::string name = {});
  Signal not1(Signal a, std::string name = {});
  Signal buf(Signal a, std::string name = {});

  [[nodiscard]] std::size_t input_count() const { return inputs_.size(); }

  /// Number of gate-output nodes == number of fault-injection sites
  /// (Table 2 column 2 for the CMOS ALUs).
  [[nodiscard]] std::size_t node_count() const { return gates_.size(); }

  [[nodiscard]] const std::string& input_name(std::size_t i) const {
    return inputs_[i];
  }

  /// Evaluates the netlist for `input_values` (bit i = input i) under
  /// fault overlay `mask` (size node_count(); null = fault-free). Returns
  /// the vector of node output values.
  [[nodiscard]] std::vector<std::uint8_t> evaluate(
      std::uint64_t input_values, MaskView mask = {}) const;

  /// Reads a signal's value out of an evaluation result.
  [[nodiscard]] bool value_of(Signal s, std::uint64_t input_values,
                              const std::vector<std::uint8_t>& nodes) const;

  /// The gate DAG in topological (creation/site) order — gate i's output
  /// is node i and fault site i. Read-only structural view for the
  /// lane-sliced evaluator.
  [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }

  /// Per-operator gate counts (debugging / area accounting).
  struct GateCounts {
    std::size_t buf = 0;
    std::size_t nots = 0;
    std::size_t ands = 0;
    std::size_t ors = 0;
    std::size_t xors = 0;
    [[nodiscard]] std::size_t total() const {
      return buf + nots + ands + ors + xors;
    }
  };
  [[nodiscard]] GateCounts gate_counts() const;

  /// Writes a human-readable netlist listing ("n12 = AND(i3, n7)  # name")
  /// for debugging synthesized structures.
  void dump(std::ostream& os) const;

 private:
  std::vector<std::string> inputs_;
  std::vector<Gate> gates_;

  void check_signal(Signal s) const;
};

}  // namespace nbx
