// alu_iface.hpp — interfaces for the twelve Table-2 ALU implementations.
//
// Two layers mirror the paper's hierarchy:
//
//   * CoreAlu — one ALU datapath evaluated once (one "pass"): either the
//     NanoBox LUT ALU with a chosen bit-level coding (§2.1) or the
//     conventional CMOS gate-level ALU. A pass is a pure function of
//     (opcode, operands, fault-mask segment).
//
//   * ModuleAlu (IAlu) — the module-level fault-tolerance wrapper (§2.2):
//     none, time redundancy (one core evaluated three times with stored
//     intermediate results), or space redundancy (three cores + voter).
//
// ALUs are deterministic: all randomness lives in the fault mask the
// caller passes in, generated per computation by fault/MaskGenerator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "common/bitvec.hpp"
#include "common/types.hpp"
#include "fault/mask_view.hpp"

namespace nbx {

namespace obs {
struct Counters;
}  // namespace obs

/// Result of one module-level computation.
struct AluOutput {
  std::uint8_t value = 0;  ///< the (possibly voted) 8-bit result
  bool valid = true;       ///< voted data-valid flag (LUT voter's 9th LUT)
  bool disagreement = false;  ///< replicas disagreed (error side-channel)
};

/// One ALU datapath pass. Implementations: LutCoreAlu, CmosCoreAlu.
class CoreAlu {
 public:
  virtual ~CoreAlu() = default;

  /// Fault-injection sites in one pass of this datapath.
  [[nodiscard]] virtual std::size_t fault_sites() const = 0;

  /// Golden stored bits in fault-site order, for datapaths whose sites
  /// are storage cells (LUT fabrics). Empty for gate-level datapaths
  /// (CMOS nodes are wires, not storage — conventional silicon is
  /// modelled defect-free).
  [[nodiscard]] virtual BitVec golden_storage() const { return {}; }

  /// Evaluates the datapath under fault overlay `mask` (size must equal
  /// fault_sites(); null = fault-free). `sink` is the fault anatomy (not
  /// owned; null = off).
  [[nodiscard]] virtual std::uint8_t eval(Opcode op, std::uint8_t a,
                                          std::uint8_t b, MaskView mask,
                                          obs::Counters* sink) const = 0;
};

class DefectMap;

/// A complete Table-2 ALU: bit-level technique x module-level technique.
class IAlu {
 public:
  virtual ~IAlu() = default;

  /// Table-2 style name, e.g. "aluss".
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Total fault-injection sites (Table 2, column 2).
  [[nodiscard]] virtual std::size_t fault_sites() const = 0;

  /// Runs one instruction under fault overlay `mask` (size fault_sites();
  /// null = fault-free). `sink` is the fault anatomy of every layer
  /// beneath — coded reads, votes, stored results (not owned; null =
  /// off, one pointer test per hook).
  [[nodiscard]] virtual AluOutput compute(Opcode op, std::uint8_t a,
                                          std::uint8_t b, MaskView mask,
                                          obs::Counters* sink = nullptr)
      const = 0;

  /// Number of *physical storage cells* a manufacturing DefectMap covers
  /// for this ALU. This differs from fault_sites() in two ways: CMOS
  /// datapaths contribute no storage, and time redundancy reuses ONE
  /// physical datapath for its three passes, so its core cells appear
  /// once here but three times in the transient site space. 0 means this
  /// ALU has no defectable storage.
  [[nodiscard]] virtual std::size_t defectable_sites() const { return 0; }

  /// Golden stored bits of the defectable storage, size
  /// defectable_sites(), in the order a DefectMap indexes.
  [[nodiscard]] virtual BitVec golden_storage() const { return {}; }

  /// Overlays manufacturing defects onto this computation's transient
  /// mask (size fault_sites()): stuck cells read as their forced value —
  /// creating permanent flips and absorbing transient hits — and a time-
  /// redundant ALU's core defects are replicated into all three pass
  /// segments (the same broken silicon executes every pass).
  /// `defects.sites()` must equal defectable_sites().
  virtual void impose_defects(const DefectMap& defects, BitVec& mask) const {
    (void)defects;
    (void)mask;
  }
};

}  // namespace nbx
