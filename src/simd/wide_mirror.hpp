// wide_mirror.hpp — the tier-independent structural mirror the SIMD lane
// engine evaluates.
//
// WideMirror::create walks an IAlu's concrete structure once and keeps
// the *data* the kernels need — which cores/voters exist, each LUT's
// decode tables, mask-segment offsets, netlists and output signals — in
// one plain object that every dispatch tier's kernels consume. The
// mirror itself never computes; computing is the per-tier templated code
// in lane_engine_inl.hpp. Building the mirror is per-engine-run (cheap,
// read-only, shared across worker threads), so tiers cannot disagree
// about structure, only about register width — and the width is verified
// bit-identical by the nbxcheck simd-differential family.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alu/alu_iface.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"

namespace nbx::simd {

/// The decode tables of one CodedLut, precomputed for the wide kernels.
/// Leaves are broadcast 64-lane words (all-zero or all-one); a wide lane
/// vector splats them across its lane words.
struct WideLut {
  /// The scalar decoder, for Hsiao/RS lanes whose segment is faulted.
  const CodedLut* lut = nullptr;
  LutCoding coding = LutCoding::kNone;
  std::size_t inputs = 0;  ///< address bits k
  std::size_t sites = 0;   ///< stored bits (fault sites) of this LUT
  std::vector<std::uint64_t> golden;  ///< 2^k truth-table leaves
  /// TMR codings: the segment-relative site of copy c of table entry s
  /// sits at tmr_sites[c * 2^k + s].
  std::vector<std::uint32_t> tmr_sites;
  /// Hamming codings, one entry per check bit j: the sites whose mask
  /// bits XOR into syndrome bit j (the data sites of check group j plus
  /// stored check bit j) ...
  std::vector<std::vector<std::uint32_t>> syndrome_sites;
  /// ... and 2^k leaves of bit j of position_of_data(addr), so the mux
  /// tree turns lane addresses into lane codeword positions.
  std::vector<std::vector<std::uint64_t>> pos_leaves;
  /// Hamming codings: 2^r leaves — does syndrome value s name a
  /// (correctable) data position?
  std::vector<std::uint64_t> is_data_leaves;
};

/// One LUT block: the LUTs of a LutCoreAlu (32) or LutVoter (9) plus
/// each LUT's site offset inside its owner's mask segment.
struct WideLutBlock {
  std::vector<WideLut> luts;
  std::vector<std::size_t> offsets;
};

/// The structural mirror of one IAlu. `fallback` mirrors are evaluated
/// per-lane through the scalar IAlu::compute (unrecognized structures —
/// the hardware-LUT ablation cores and future ALUs).
class WideMirror {
 public:
  enum class Level : std::uint8_t { kSingle, kSpace, kTime };
  enum class PartKind : std::uint8_t { kLut, kCmos };

  struct Core {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    WideLutBlock block;                   // kLut
    const Netlist* netlist = nullptr;     // kCmos
    Signal result[8];                     // kCmos
  };

  struct Voter {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    WideLutBlock block;                   // kLut: 8 value LUTs + valid
    const Netlist* netlist = nullptr;     // kCmos
    Signal majority[8];                   // kCmos
    Signal error;                         // kCmos
  };

  /// Builds the mirror of `alu` (which must outlive it). Never fails:
  /// unrecognized structures yield a fallback mirror.
  static std::unique_ptr<WideMirror> create(const IAlu& alu);

  [[nodiscard]] const IAlu& scalar_alu() const { return *alu_; }
  [[nodiscard]] Level level() const { return level_; }
  [[nodiscard]] bool is_fallback() const { return fallback_; }
  [[nodiscard]] const std::vector<Core>& cores() const { return cores_; }
  [[nodiscard]] const Voter* voter() const {
    return has_voter_ ? &voter_ : nullptr;
  }
  /// Largest netlist node count across parts (0 when none) — sizes the
  /// per-worker node scratch once per run.
  [[nodiscard]] std::size_t max_netlist_nodes() const { return max_nodes_; }

 private:
  const IAlu* alu_ = nullptr;
  Level level_ = Level::kSingle;
  bool fallback_ = false;
  bool has_voter_ = false;
  std::vector<Core> cores_;  // 1 (single/time) or 3 (space)
  Voter voter_;
  std::size_t max_nodes_ = 0;
};

}  // namespace nbx::simd
