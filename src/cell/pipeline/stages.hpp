// stages.hpp — the four pipeline stages of the NanoBox cell.
//
// Each stage class serves two masters:
//
//   * the LEGACY single-instruction path: ProcessorCell::step_compute()
//     is re-expressed as a degenerate 1-deep pipeline — fetch scans the
//     cell memory, decode runs the aluctrl gate, execute runs the three
//     module-redundancy passes, writeback retires the word. These entry
//     points reproduce the pre-refactor monolithic pass draw-for-draw,
//     so every historical golden stands bit-for-bit.
//
//   * the PROGRAM path: CellPipeline runs NBXS programs through the
//     same four stages with per-stage fault injection — fetch reads the
//     faultable InstructionStore, decode unpacks a (possibly TMR-
//     protected) control word, execute drives a catalogued IAlu,
//     writeback commits to the triplicated RegisterFile.
//
// Hazard and flush policy lives in CellPipeline; the stages are pure
// per-instruction transforms plus their fault machinery.
#pragma once

#include <array>
#include <cstdint>
#include <memory>

#include "alu/alu_iface.hpp"
#include "alu/lut_core_alu.hpp"
#include "cell/cell_memory.hpp"
#include "cell/control_logic.hpp"
#include "cell/pipeline/instruction_store.hpp"
#include "cell/pipeline/register_file.hpp"
#include "common/rng.hpp"
#include "fault/defect_map.hpp"
#include "fault/mask_generator.hpp"

namespace nbx {

/// IF — instruction fetch.
class FetchStage {
 public:
  /// Legacy §3.2.2 memory scan: returns the word under the scan pointer
  /// and advances it (wrapping).
  [[nodiscard]] MemoryWord& scan(CellMemory& mem,
                                 std::size_t& scan_ptr) const {
    MemoryWord& w = mem.word(scan_ptr);
    scan_ptr = (scan_ptr + 1) % mem.capacity();
    return w;
  }

  /// Program mode: bind the transient generator to the store's
  /// per-fetch site count.
  void configure(std::size_t sites, double fault_percent) {
    gen_ = MaskGenerator(sites, fault_percent);
  }

  [[nodiscard]] FetchedRecord run(InstructionStore& store, std::size_t pc,
                                  Rng& rng,
                                  std::uint64_t* bit_faults) const {
    return store.fetch(pc, gen_, rng, bit_faults);
  }

 private:
  MaskGenerator gen_{0, 0.0};
};

/// A decoded micro-op. Register/mode fields are derived from the
/// instruction id (the NBXS format's only free bits), which makes every
/// NBXS stream a runnable register program:
///   dst = id[2:0], mode = id[4:3], src1 = id[7:5], src2 = id[10:8]
/// Operand modes: 0 = imm,imm · 1 = reg[src1],imm · 2 = imm,reg[src2]
/// · 3 = reg[src1],reg[src2]. Semantics: r[dst] = op(operand1, operand2)
/// in stream order.
struct DecodedOp {
  bool flush = false;  ///< opcode decoded to an undefined encoding
  std::uint16_t instr_id = 0;
  std::uint8_t op_bits = 0;
  std::uint8_t dst = 0;
  std::uint8_t src1 = 0;
  std::uint8_t src2 = 0;
  std::uint8_t mode = 0;
  std::uint8_t imm_a = 0;
  std::uint8_t imm_b = 0;
};

/// Bits in one copy of the decoded control word:
/// op(3) + dst(3) + mode(2) + src1(3) + src2(3).
inline constexpr std::size_t kControlWordBits = 14;

/// ID — decode / aluctrl. Owns the cell's LUT-based control logic
/// (legacy decisions) and the program-mode control-word fault model.
class DecodeStage {
 public:
  DecodeStage(LutCoding control_coding, double control_fault_percent,
              std::uint64_t seed)
      : control_(control_coding, control_fault_percent, seed) {}

  [[nodiscard]] ControlLogic& control() { return control_; }
  [[nodiscard]] const ControlLogic& control() const { return control_; }

  /// Legacy aluctrl gate (§3.3).
  [[nodiscard]] bool should_compute(const MemoryWord& w) {
    return control_.should_compute(w);
  }
  /// Legacy router decision (§3.3).
  [[nodiscard]] RouteDecision route(CellId self, CellId dest) {
    return control_.route(self, dest);
  }

  /// Program mode: control-word protection + per-decode fault rate.
  void configure(LutCoding word_coding, double fault_percent);

  /// Unpacks a fetched record into a micro-op under decode-stage
  /// faults: the control word (one or three copies) is XORed with a
  /// fresh mask, voted when coded, then field-split. An undefined
  /// opcode encoding sets `flush`.
  [[nodiscard]] DecodedOp run(const FetchedRecord& rec, Rng& rng,
                              std::uint64_t* bit_faults);

 private:
  ControlLogic control_;
  std::size_t copies_ = 1;
  MaskGenerator gen_{kControlWordBits, 0.0};
  BitVec mask_{kControlWordBits};
};

/// EX — the ALU datapath with its fault and defect machinery. Exactly
/// one fabric is active: the legacy LutCoreAlu (ProcessorCell) or a
/// catalogued IAlu (CellPipeline).
class ExecuteStage {
 public:
  /// Legacy fabric: the cell's LUT ALU with the chosen bit coding.
  explicit ExecuteStage(LutCoding coding);
  /// Program fabric: any Table-2 catalogue ALU.
  explicit ExecuteStage(std::unique_ptr<IAlu> alu);

  /// Manufactures the fabric's stuck-at defects and (optionally)
  /// remaps logical storage around them — the exact draw sequence of
  /// the historical ProcessorCell constructor.
  void manufacture(double defect_density, std::size_t spare_sites,
                   bool remap, Rng& rng);

  /// (Re)binds the transient generator; call after manufacture.
  void set_fault_percent(double percent);

  /// Legacy path: one LutCoreAlu pass under a fresh mask with defects
  /// overlaid — bit-identical to the historical compute_pass. Adds the
  /// pass's TMR copy disagreements to `*tmr_disagreements`.
  [[nodiscard]] std::uint8_t pass(Opcode op, std::uint8_t a,
                                  std::uint8_t b, Rng& rng,
                                  std::uint64_t* tmr_disagreements);

  /// Program path: one IAlu computation under a fresh mask with
  /// defects overlaid. Adds the injected flip count to `*bit_faults`.
  [[nodiscard]] AluOutput run(Opcode op, std::uint8_t a, std::uint8_t b,
                              Rng& rng, std::uint64_t* bit_faults);

  [[nodiscard]] std::size_t fault_sites() const;
  [[nodiscard]] const DefectMap& defects() const { return defects_; }
  [[nodiscard]] std::size_t manufactured_defects() const {
    return manufactured_;
  }
  [[nodiscard]] bool remap_feasible() const { return remap_feasible_; }
  [[nodiscard]] std::size_t remap_spares_used() const {
    return spares_used_;
  }
  [[nodiscard]] const IAlu* alu() const { return ialu_.get(); }

 private:
  std::unique_ptr<LutCoreAlu> lut_;  // legacy fabric
  std::unique_ptr<IAlu> ialu_;       // program fabric
  DefectMap defects_{0};
  BitVec golden_bits_;
  MaskGenerator gen_{0, 0.0};
  BitVec mask_;
  std::size_t manufactured_ = 0;
  bool remap_feasible_ = true;
  std::size_t spares_used_ = 0;

  [[nodiscard]] std::size_t defectable_sites() const;
};

/// WB — retire.
class WritebackStage {
 public:
  /// Legacy: the word's three result copies are already written;
  /// clearing the pending triple retires it (§3.2.2).
  void retire(MemoryWord& w) const { w.set_pending(false); }

  /// Program mode: per-commit fault rate over the 24 written bits
  /// (three 8-bit register copies).
  void configure(double fault_percent) {
    gen_ = MaskGenerator(kSites, fault_percent);
  }

  /// Commits `value` to r[dst]: each of the three copies is written
  /// through its own 8-bit fault window, so a writeback fault corrupts
  /// one copy and the register vote must outvote it. Returns the
  /// post-write voted value.
  std::uint8_t run(RegisterFile& regs, std::size_t dst,
                   std::uint8_t value, Rng& rng,
                   std::uint64_t* bit_faults);

 private:
  static constexpr std::size_t kSites = 24;
  MaskGenerator gen_{kSites, 0.0};
  BitVec mask_{kSites};
};

}  // namespace nbx
