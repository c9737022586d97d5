// hw_lut.hpp — a gate-level hardware model of the TMR-coded lookup table.
//
// Paper §4: "we do not model faults in the lookup table error detector
// or corrector." This module removes that idealization: the LUT's read
// path — address decoder, per-copy output multiplexer, and the 3-way
// majority corrector — is synthesized into an actual netlist whose gate
// nodes are fault-injection sites alongside the 48 storage cells. The
// bench built on this (bench_detector_faults) quantifies how much of the
// paper's bit-level TMR reliability survives once the corrector itself
// is as faulty as the fabric it protects.
//
// Structure (4-input LUT, blocked TMR):
//   shared address decode: 4 inverters + 16 four-input minterm ANDs
//   per copy:              16 AND2 (minterm & storage bit) + 1 OR16
//   majority corrector:    3 AND2 + 2 OR2
// Logic sites = 4 + 16 + 3*17 + 5 = 76 gate nodes; storage sites = 48.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/bitvec.hpp"
#include "fault/mask_view.hpp"
#include "gatesim/netlist.hpp"

namespace nbx {

/// Gate-level triplicated 4-input LUT with a faultable read path.
class HwTmrLut {
 public:
  /// Builds the hardware for truth table `tt` (must be 16 bits).
  explicit HwTmrLut(BitVec tt);

  /// Storage cells (three 16-bit copies, blocked layout).
  [[nodiscard]] std::size_t storage_sites() const { return 48; }

  /// Gate nodes in the read path (decoder + muxes + majority).
  [[nodiscard]] std::size_t logic_sites() const {
    return net_.node_count();
  }

  /// Total fault sites: storage then logic ([0,48) storage cells,
  /// [48, 48+logic) gate nodes).
  [[nodiscard]] std::size_t fault_sites() const {
    return storage_sites() + logic_sites();
  }

  /// Reads the LUT under a combined fault overlay: mask bits [0,48)
  /// flip storage cells, [48,...) flip read-path gate outputs.
  [[nodiscard]] bool read(std::uint32_t addr, MaskView mask) const;

  [[nodiscard]] const Netlist& netlist() const { return net_; }
  /// The read path's majority output. Inputs are the 4 address lines,
  /// then the 48 storage cells copy-major; the netlist is the same for
  /// every truth table.
  [[nodiscard]] Signal output() const { return out_; }
  [[nodiscard]] const BitVec& golden_table() const { return tt_; }

 private:
  BitVec tt_;
  Netlist net_;
  Signal out_;  // majority output
};

/// The recursive answer to a faultable read path: THREE complete
/// HwTmrLut instances (storage + decoder + mux + majority, 124 sites
/// each) voted by one final gate-level majority (5 more nodes) — the
/// paper's box-within-a-box philosophy applied to the corrector itself.
/// Total sites: 3 x 124 + 5 = 377. A single fault anywhere — storage,
/// decoder, corrector — is now masked; only the 5-node final majority
/// remains a single point of failure.
class HwRecursiveTmrLut {
 public:
  explicit HwRecursiveTmrLut(BitVec tt);

  [[nodiscard]] std::size_t fault_sites() const {
    return 3 * replica_sites_ + kFinalMajoritySites;
  }
  [[nodiscard]] std::size_t replica_sites() const { return replica_sites_; }

  /// Site layout: [replica0 | replica1 | replica2 | 5 majority nodes].
  [[nodiscard]] bool read(std::uint32_t addr, MaskView mask) const;

  static constexpr std::size_t kFinalMajoritySites = 5;

 private:
  std::vector<HwTmrLut> replicas_;
  std::size_t replica_sites_;
};

}  // namespace nbx
