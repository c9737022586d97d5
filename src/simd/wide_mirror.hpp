// wide_mirror.hpp — the tier-independent structural mirror the SIMD lane
// engine evaluates.
//
// WideMirror::create walks an IAlu's concrete structure once and keeps
// the *data* the kernels need — which cores/voters exist, each LUT's
// golden leaves and its code's decode tables, mask-segment offsets,
// netlists and output signals — in one plain object that every dispatch
// tier's kernels consume. The mirror itself never computes; computing is
// the per-tier templated code in lane_engine_inl.hpp. Building the mirror
// is per-engine-run (cheap, read-only, shared across worker threads), so
// tiers cannot disagree about structure, only about register width — and
// the width is verified bit-identical by the nbxcheck backend-differential
// family. Every catalogued ALU has a mirror: the kernels are the wide
// engine's only path, with no per-lane fallback.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "alu/alu_iface.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx::simd {

/// Multiplication by a GF(16) constant c, as the 4x4 bit matrix the
/// bit-sliced kernels apply: bit t of c*x is the XOR of the bits b of x
/// whose m[t][b] is all-one. Entries are broadcast 64-lane words.
struct GfConstMatrix {
  std::uint64_t m[4][4] = {};
};

/// The decode tables of one (coding, table size). They depend on the code
/// alone, never on the LUT's contents, so the mirror builds each once and
/// every LUT of that shape points at it. Leaves are broadcast 64-lane
/// words (all-zero or all-one); a wide lane vector splats them across its
/// lane words.
struct WideCode {
  LutCoding coding = LutCoding::kNone;
  std::size_t table_bits = 0;  ///< 2^k
  /// TMR codings: the segment-relative site of copy c of table entry s
  /// sits at tmr_sites[c * 2^k + s].
  std::vector<std::uint32_t> tmr_sites;
  /// Hamming, Hsiao and Reed-Solomon, one entry per syndrome bit j: the
  /// stored sites whose mask bits XOR into it. The golden stored string
  /// is a codeword, so the syndrome is a function of the mask alone.
  /// Hamming/Hsiao: the data sites whose H column has bit j set, plus
  /// check site j. Reed-Solomon: bits 0-3 of S1, then bits 0-3 of S2.
  std::vector<std::vector<std::uint32_t>> syndrome_sites;
  /// Hamming/Hsiao: 2^k leaves of bit j of data bit a's H column
  /// (Hamming: its codeword position), so the mux tree turns lane
  /// addresses into lane columns.
  std::vector<std::vector<std::uint64_t>> column_leaves;
  /// Hamming: the codeword length. The decoder repairs a syndrome that
  /// names a data position: two or more bits set, at most this.
  std::size_t codeword_bits = 0;
  /// Hsiao: 2^r leaves, does the decoder call syndrome s a repair
  /// (HsiaoStatus::kCorrected: odd weight and a unit vector or a data
  /// column)? Read only with the anatomy sink on.
  std::vector<std::uint64_t> repair_leaves;
  /// Reed-Solomon, one entry per codeword symbol j: multiplication by
  /// alpha^j (the locator test S1 * alpha^j == S2) and by alpha^-j (the
  /// error magnitude S1 * alpha^-j).
  std::vector<GfConstMatrix> rs_locate;
  std::vector<GfConstMatrix> rs_magnitude;
};

/// One CodedLut as the wide kernels read it: its golden leaves plus the
/// shared tables of its code. A gate-level HwTmrLut keeps only its
/// leaves; its core holds the read-path netlist.
struct WideLut {
  const WideCode* code = nullptr;  ///< owned by the WideMirror; null (hw)
  LutCoding coding = LutCoding::kNone;
  std::size_t inputs = 0;  ///< address bits k
  std::size_t sites = 0;   ///< fault sites of the mirrored LUT
  std::vector<std::uint64_t> golden;  ///< 2^k truth-table leaves

  [[nodiscard]] std::size_t fault_sites() const { return sites; }
};

/// The LutBlock of a LutCoreAlu or HwLutCoreAlu (32 LUTs) or a LutVoter
/// (9), LUT for LUT: the same layout, hence the same site offsets.
using WideLutBlock = LutBlock<WideLut>;

/// The structural mirror of one IAlu.
class WideMirror {
 public:
  enum class Level : std::uint8_t { kSingle, kSpace, kTime };
  /// kLut: CodedLuts (LutCoreAlu, LutVoter); kHwLut: the gate-level
  /// HwTmrLuts of a HwLutCoreAlu; kCmos: one gate netlist.
  enum class PartKind : std::uint8_t { kLut, kHwLut, kCmos };

  struct Core {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    WideLutBlock block;                   // kLut, kHwLut
    /// kCmos: the core. kHwLut: the read path every HwTmrLut builds
    /// alike (4 address inputs, 48 storage inputs), output `lut_out`.
    const Netlist* netlist = nullptr;
    Signal result[8];                     // kCmos
    Signal lut_out;                       // kHwLut
  };

  struct Voter {
    PartKind kind = PartKind::kLut;
    std::size_t sites = 0;
    WideLutBlock block;                   // kLut: 8 value LUTs + valid
    const Netlist* netlist = nullptr;     // kCmos
    Signal majority[8];                   // kCmos
    Signal error;                         // kCmos
  };

  /// Builds the mirror of `alu` (which must outlive it). Throws
  /// std::invalid_argument for a module, core or voter type it does not
  /// know.
  static std::unique_ptr<WideMirror> create(const IAlu& alu);

  [[nodiscard]] Level level() const { return level_; }
  [[nodiscard]] const std::vector<Core>& cores() const { return cores_; }
  [[nodiscard]] const Voter* voter() const {
    return level_ == Level::kSingle ? nullptr : &voter_;
  }
  /// Largest netlist node count across parts (0 when none) — sizes the
  /// per-worker node scratch once per run.
  [[nodiscard]] std::size_t max_netlist_nodes() const { return max_nodes_; }

 private:
  Level level_ = Level::kSingle;
  std::vector<Core> cores_;  // 1 (single/time) or 3 (space)
  Voter voter_;  // kSpace, kTime
  std::size_t max_nodes_ = 0;
  /// One per (coding, table size) among the mirrored LUTs.
  std::vector<std::unique_ptr<const WideCode>> codes_;
};

}  // namespace nbx::simd
