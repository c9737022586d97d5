// coded_lut.hpp — the NanoBox bit-level fault-tolerant lookup table.
//
// Paper §2.1: "At the bit level, we use field programmable gate array
// (FPGA)-style lookup tables to implement the desired logic. These lookup
// tables contain error correction codes which can dynamically detect and,
// depending on the error densities and codes used, actually correct
// errors."
//
// Three codings from the paper are implemented, plus one extension:
//   * kNone    — bare truth table; an access exposes exactly the addressed
//                bit, so faults on other bits are invisible (this is why
//                alunn beats alunh at high fault rates, §5);
//   * kHamming — truth table + Hamming SEC check bits; every access runs
//                check-bit generator -> error detector -> error corrector
//                over the whole stored string (Figure 1b);
//   * kTmr     — three full copies of the truth table, per-access majority
//                vote of the addressed bit;
//   * kHsiao   — (extension, not in the paper's evaluation) SEC-DED that
//                refuses to correct on detected double errors.
//
// Faults are transient: the stored golden strings are never modified.
// Each access receives a MaskView that XOR-overlays this computation's
// fault mask onto the stored bits (paper Figure 6a).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>

#include "coding/hamming.hpp"
#include "coding/hsiao.hpp"
#include "coding/reed_solomon.hpp"
#include "common/bitvec.hpp"
#include "fault/mask_view.hpp"

namespace nbx {

namespace obs {
struct Counters;
struct CodeLayerCounters;
}  // namespace obs

/// Bit-level fault-tolerance technique of a coded LUT (paper §2.1).
///
/// kHamming models the paper's decoder *as evaluated*: the corrector can
/// repair a syndrome that identifies a unique data bit, but a syndrome it
/// cannot localize (a failing check bit, or a multi-bit fault producing
/// an out-of-range syndrome) makes the shared correction logic toggle the
/// function output whenever the failing check groups cover the addressed
/// position. This is the paper's "false positives caused by errors in
/// bits which are not addressed by the lookup table inputs" (§5) — check
/// bits are never addressed — and it is what makes alunh *worse* than
/// alunn. kHammingIdeal is the textbook SEC decoder (ignore check-bit
/// syndromes, never touch the output on ambiguity), provided as an
/// ablation: with it, information coding beats no coding, flipping the
/// paper's conclusion.
enum class LutCoding : std::uint8_t {
  kNone,          ///< no redundancy — Table 2 suffix "n"
  kHamming,       ///< Hamming information code, naive corrector — suffix "h"
  kHammingIdeal,  ///< Hamming with an ideal SEC decoder (ablation)
  kTmr,           ///< triplicated bit string, copies stored as three
                  ///< separate blocks — suffix "s"
  kTmrInterleaved,  ///< triplicated bit string with the three copies of
                    ///< each entry stored in adjacent cells (layout
                    ///< ablation: identical under uniform faults, but a
                    ///< physical burst can wipe all three copies of one
                    ///< entry) — suffix "si"
  kHsiao,         ///< SEC-DED extension (ablation only)
  kReedSolomon,   ///< RS over GF(16), 4-bit symbols, single-symbol
                  ///< correction (extension: the paper names RS in §2.1
                  ///< but never evaluates it; shines under burst faults)
};

/// Short Table-2-style suffix for a coding ("n", "h", "s", "hsiao").
std::string_view lut_coding_suffix(LutCoding c);

/// The anatomy bucket a LutCoding reports into, or null for kNone /
/// a null sink (bare tables do no decoding, so no code-layer events).
obs::CodeLayerCounters* code_layer_of(obs::Counters* sink, LutCoding coding);

/// A K-input lookup table protected by one of the bit-level codings.
///
/// The object owns the *golden* stored strings (truth table + check bits /
/// copies). `read` never mutates them; the fault mask is overlaid per
/// access. fault_sites() is the number of stored bits — the LUT's share of
/// Table 2's fault-injection points.
class CodedLut {
 public:
  /// Builds a coded LUT for truth table `tt` (size must be a power of
  /// two, 2^1..2^kMaxLutInputs).
  CodedLut(BitVec tt, LutCoding coding);

  CodedLut(const CodedLut&) = delete;
  CodedLut& operator=(const CodedLut&) = delete;
  CodedLut(CodedLut&&) = default;
  CodedLut& operator=(CodedLut&&) = default;

  [[nodiscard]] LutCoding coding() const { return coding_; }
  [[nodiscard]] int inputs() const { return k_; }
  [[nodiscard]] std::size_t table_bits() const { return tt_.size(); }

  /// Number of stored (fault-injectable) bits:
  ///   kNone: 2^k; kHamming: 2^k + r; kTmr: 3 * 2^k; kHsiao: 2^k + r'.
  [[nodiscard]] std::size_t fault_sites() const { return fault_sites_; }

  /// Reads the LUT output for input vector `addr` under fault overlay
  /// `mask` (must have size fault_sites(); a null view means fault-free).
  ///
  /// `sink` (not owned; null = off) is the fault anatomy: a coded read
  /// classifies its outcome against the golden content into the
  /// per-code counters. `tmr_disagreements` (null = off) counts TMR
  /// reads whose three copies of the addressed bit disagreed — the
  /// hardware's own detector (§2.3), which the processor cell feeds to
  /// its error threshold. It is not an anatomy bucket: a read whose
  /// three copies all flipped is `miscorrected` there, yet the copies
  /// agree and this count does not move.
  [[nodiscard]] bool read(std::uint32_t addr, MaskView mask,
                          obs::Counters* sink = nullptr,
                          std::uint64_t* tmr_disagreements = nullptr) const;

  /// The golden (unfaulted, undecoded) truth table.
  [[nodiscard]] const BitVec& golden_table() const { return tt_; }

  /// The golden stored bit string in fault-site order — the bits a fault
  /// mask (or a manufacturing DefectMap) indexes: [table | checks] for
  /// information codes, three table copies for TMR. Size fault_sites().
  [[nodiscard]] BitVec stored_bits() const;

 private:
  int k_;
  LutCoding coding_;
  BitVec tt_;      // golden truth table, 2^k bits
  BitVec checks_;  // golden check bits (Hamming/Hsiao), empty otherwise
  std::size_t fault_sites_;
  // Code engines are shared per (coding, k); cheap to construct, but we
  // keep one per LUT for simplicity — they are a few small vectors.
  std::unique_ptr<HammingCode> hamming_;
  std::unique_ptr<HsiaoCode> hsiao_;
  std::unique_ptr<Rs16Code> rs_;

  [[nodiscard]] std::size_t tmr_site(std::size_t copy, std::size_t addr) const;
  /// A coded read whose mask hits none of the LUT's sites.
  [[nodiscard]] bool read_unfaulted(std::uint32_t addr,
                                    obs::CodeLayerCounters* oc) const;
  /// Copies the stored table and check bits into `data` and `checks`
  /// with `mask` overlaid; returns how many mask bits hit them.
  std::size_t load_faulted(MaskView mask, BitVec& data, BitVec& checks) const;
  [[nodiscard]] bool read_none(std::uint32_t addr, MaskView mask) const;
  [[nodiscard]] bool read_tmr(std::uint32_t addr, MaskView mask,
                              obs::CodeLayerCounters* oc,
                              std::uint64_t* tmr_disagreements) const;
  [[nodiscard]] bool read_hamming(std::uint32_t addr, MaskView mask,
                                  obs::CodeLayerCounters* oc) const;
  [[nodiscard]] bool read_hsiao(std::uint32_t addr, MaskView mask,
                                obs::CodeLayerCounters* oc) const;
  [[nodiscard]] bool read_rs(std::uint32_t addr, MaskView mask,
                             obs::CodeLayerCounters* oc) const;
};

/// Stored-bit count a coded LUT of `table_bits` would occupy, without
/// building one. Used by structural unit tests against Table 2.
std::size_t coded_lut_sites(std::size_t table_bits, LutCoding coding);

}  // namespace nbx
