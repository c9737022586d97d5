// lane_engine_inl.hpp — the wide lane engine's kernel bodies, compiled
// once per dispatch tier.
//
// This header is included by lane_engine_{scalar,avx2,avx512}.cpp with
// NBX_SIMD_NS set to a tier-specific namespace and the TU compiled with
// that tier's -m flags. Every kernel works on LaneVec<W> rows (W 64-bit
// lane words per fault site), each held as GCC vector registers of the
// TU's width (a zmm of 8 words under AVX-512, a ymm of 4 under AVX2, an
// SSE2 xmm of 2 on the portable tier), so a row stays in registers
// through a kernel at every optimization level instead of in a word
// array the compiler may or may not vectorize. Distinct namespaces
// keep each tier's template instantiations distinct symbols (the
// Highway-style foreach-target pattern), so the linker can never merge
// an AVX-512 instantiation into a binary path reached on a plain-SSE
// machine.
//
// What the kernels compute, each lane-sliced over 64*W trial lanes:
//   * LUT reads (lut_read) — a Shannon mux tree over the fault-XORed
//     stored words, built only over the address bits that differ between
//     lanes (MuxSel): operands and opcode are broadcast, so most reads
//     are one leaf load. TMR majority-votes three trees; Hamming and
//     Hsiao decode the mask's syndrome as lane-parallel predicates, and
//     Hamming's repair test is the code's own rule, bit-sliced;
//     Reed-Solomon locates and repairs a symbol in bit-sliced GF(16)
//     arithmetic, only for the symbols the tree reads. Every coding has
//     this one read path, for every lane;
//   * gate netlists (eval_netlist) — parallel-pattern simulation of the
//     CMOS cores and voter, and of the hw cores' gate-level LUT read
//     paths (hw_lut_read: one shared netlist over each LUT's storage);
//   * LUT cores (WideSliceExec) — the shared slice plan of
//     alu/slice_plan.hpp at W lane words, over either LUT kind's read;
//   * modules (WideModuleExec) — the shared compute_single/space/time
//     plans of alu/module_plan.hpp at W lane words;
//   * the fault masks (lockstep_masks) — exactly MaskGenerator's
//     per-lane draws, for a block of lanes at once;
//   * one lane group end to end (run_group_impl).
// Every catalogued ALU runs through these kernels; there is no per-lane
// scalar path. The anatomy sink is the group's obs::Counters, null when
// off, and a LUT reader gets its code's CodeLayerCounters.
// Every tier at every W must be bit-identical to the scalar trial engine,
// including anatomy counters (nbxcheck backend-differential,
// tests/sim/simd_tier_test.cpp).
//
// NOTE this header has no include guard on purpose: it is included once
// per tier TU, never from another header.

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "alu/module_plan.hpp"
#include "alu/slice_plan.hpp"
#include "common/batch_bitvec.hpp"
#include "gatesim/netlist.hpp"
#include "lut/coded_lut.hpp"
#include "obs/counters.hpp"
#include "simd/lane_kernels.hpp"
#include "simd/wide_mirror.hpp"

#ifndef NBX_SIMD_NS
#error "lane_engine_inl.hpp requires NBX_SIMD_NS (see lane_engine_*.cpp)"
#endif

namespace nbx::simd {
namespace NBX_SIMD_NS {

// ------------------------------------------------------ tier widths
//
// One ladder per tier, not knobs:
//   kRegWords — lane words per vector register: a zmm under AVX-512, a
//     ymm under AVX2, an xmm (SSE2, the x86-64 baseline) on the portable
//     tier. LaneVec<W> holds a row in W / kRegWords of them;
//   kDrawBlock, kDrawTile — the lockstep mask layer's lanes stepped
//     together and Floyd steps per tile (see "lockstep masks" below).
#if defined(__AVX512F__)
constexpr std::size_t kRegWords = 8;
constexpr std::size_t kDrawBlock = 8;
constexpr std::size_t kDrawTile = 16;
#elif defined(__AVX2__)
constexpr std::size_t kRegWords = 4;
constexpr std::size_t kDrawBlock = 4;
constexpr std::size_t kDrawTile = 8;
#else
constexpr std::size_t kRegWords = 2;
constexpr std::size_t kDrawBlock = 1;
constexpr std::size_t kDrawTile = 8;
#endif

// --------------------------------------------------------------- LaneVec

/// W lane words = 64*W trial lanes, held as R = W / C GCC vector
/// registers of C = min(W, kRegWords) words each, so a row lives in
/// registers across a kernel instead of in a stack array the compiler
/// may or may not vectorize. Every operator is whole-row; `word(i)`
/// reads lane word i for the few scalar consumers (mux classification,
/// popcounts, the scorer).
template <std::size_t W>
struct LaneVec {
  static constexpr std::size_t C = std::min(W, kRegWords);
  static constexpr std::size_t R = W / C;
  static_assert(W % C == 0);
  // typedef, not `using`: GCC 12 drops a dependent vector_size from an
  // alias-declaration and leaves a plain uint64_t.
  typedef std::uint64_t Reg __attribute__((vector_size(8 * C)));
  /// A register's view of C words of a row: rows are only 8-byte
  /// aligned, and may_alias lets it read and write uint64_t storage.
  typedef std::uint64_t Row
      __attribute__((vector_size(8 * C), aligned(8), may_alias));

  Reg r[R];

  static LaneVec zero() { return splat(0); }
  static LaneVec ones() { return splat(~std::uint64_t{0}); }
  /// Splats one 64-lane word pattern across every lane word — used for
  /// broadcast leaves (all-zero/all-one) and scalar operand bits.
  static LaneVec splat(std::uint64_t word) {
    LaneVec v;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) v.r[k] = Reg{} + word;
    return v;
  }
  static LaneVec load(const std::uint64_t* p) {
    LaneVec v;
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) {
      v.r[k] = *reinterpret_cast<const Row*>(p + k * C);
    }
    return v;
  }
  void store(std::uint64_t* p) const {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) {
      *reinterpret_cast<Row*>(p + k * C) = r[k];
    }
  }
  [[nodiscard]] std::uint64_t word(std::size_t i) const {
    return r[i / C][i % C];
  }

  friend LaneVec operator&(LaneVec a, const LaneVec& b) { return a &= b; }
  friend LaneVec operator|(LaneVec a, const LaneVec& b) { return a |= b; }
  friend LaneVec operator^(LaneVec a, const LaneVec& b) { return a ^= b; }
  friend LaneVec operator~(LaneVec a) {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) a.r[k] = ~a.r[k];
    return a;
  }
  LaneVec& operator&=(const LaneVec& b) {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) r[k] &= b.r[k];
    return *this;
  }
  LaneVec& operator|=(const LaneVec& b) {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) r[k] |= b.r[k];
    return *this;
  }
  LaneVec& operator^=(const LaneVec& b) {
#pragma GCC unroll 8
    for (std::size_t k = 0; k < R; ++k) r[k] ^= b.r[k];
    return *this;
  }
};

/// Per-lane 2:1 mux: lane L is hi's when sel's lane L is 1, else lo's.
template <std::size_t W>
inline LaneVec<W> blend(const LaneVec<W>& lo, const LaneVec<W>& hi,
                        const LaneVec<W>& sel) {
  return lo ^ ((lo ^ hi) & sel);
}

/// Active-lane population of `x & active`.
template <std::size_t W>
inline std::uint64_t popcnt(const LaneVec<W>& x, const LaneVec<W>& active) {
  const LaneVec<W> live = x & active;
  std::uint64_t n = 0;
  for (std::size_t i = 0; i < W; ++i) {
    n += static_cast<std::uint64_t>(std::popcount(live.word(i)));
  }
  return n;
}

/// Active mask for the low `lanes` lanes of a W-word group.
template <std::size_t W>
inline LaneVec<W> active_mask(unsigned lanes) {
  std::uint64_t w[W] = {};
  for (std::size_t i = 0; i < W; ++i) {
    const std::size_t low = i * kLanesPerWord;
    if (lanes > low) {
      const unsigned here =
          static_cast<unsigned>(std::min<std::size_t>(lanes - low, 64));
      w[i] = lane_mask_for(here);
    }
  }
  return LaneVec<W>::load(w);
}

// --------------------------------------------------------------- mux tree

// Largest mux tree: max(2^kMaxLutInputs, 2^r) leaves. For k <= 6 data
// widths the Hamming code needs r <= 7 check bits, so 128 covers both,
// and Hsiao up to k = 5 (r = 6 at the mirrored blocks' k = 4).
constexpr std::size_t kMuxLevelsMax = 7;
constexpr std::size_t kMuxLeavesMax = std::size_t{1} << kMuxLevelsMax;

/// A mux tree's k selector rows, classified once across every lane word.
/// An all-zero or all-one row picks the same side in every lane, so it
/// folds into the fixed leaf-index bits `base`; only the `mixed` levels
/// (a leaf-index bit mask) are left for the tree. Every tree a read
/// builds over one address shares one classification. The operands and
/// opcode are broadcast, so a row mixes only once a faulted read has made
/// lanes disagree (a carry, a slice's logic/sum output, a copy's result
/// bit, a syndrome bit).
template <std::size_t W>
struct MuxSel {
  const LaneVec<W>* sel;
  std::size_t base = 0;
  std::size_t mixed = 0;

  MuxSel(std::size_t k, const LaneVec<W>* rows) : sel(rows) {
    assert(k <= kMuxLevelsMax);
    for (std::size_t l = 0; l < k; ++l) {
      std::uint64_t any = 0;
      std::uint64_t all = ~std::uint64_t{0};
      for (std::size_t i = 0; i < W; ++i) {
        any |= rows[l].word(i);
        all &= rows[l].word(i);
      }
      if (all == ~std::uint64_t{0}) {
        base |= std::size_t{1} << l;
      } else if (any != 0) {
        mixed |= std::size_t{1} << l;
      }
    }
  }
};

/// Shannon mux tree over the mixed levels of `ms`: 2^m leaves for m
/// mixed levels, a single leaf when none mixes. `leaf(i)` supplies leaf i
/// on demand so callers fuse the fault XOR into the load. Bit-identical
/// per lane to the full 2^k tree: each lane still gets exactly the leaf
/// its address names.
template <std::size_t W, class Leaf>
LaneVec<W> lane_mux(const MuxSel<W>& ms, Leaf&& leaf) {
  if (ms.mixed == 0) {
    return leaf(ms.base);
  }
  LaneVec<W> buf[kMuxLeavesMax / 2];
  // (sub - mixed) & mixed steps through the subsets of `mixed` in
  // increasing order, i.e. the tree's leaves left to right.
  std::size_t sub = 0;
  const auto next_leaf = [&] {
    const std::size_t s = ms.base | sub;
    sub = (sub - ms.mixed) & ms.mixed;
    return leaf(s);
  };
  std::size_t levels = ms.mixed;
  std::size_t half = std::size_t{1} << (std::popcount(levels) - 1);
  const LaneVec<W>& sel0 = ms.sel[std::countr_zero(levels)];
  for (std::size_t i = 0; i < half; ++i) {
    const LaneVec<W> lo = next_leaf();
    buf[i] = blend(lo, next_leaf(), sel0);
  }
  for (levels &= levels - 1; levels != 0; levels &= levels - 1) {
    half >>= 1;
    const LaneVec<W>& sel = ms.sel[std::countr_zero(levels)];
    for (std::size_t i = 0; i < half; ++i) {
      buf[i] = blend(buf[2 * i], buf[2 * i + 1], sel);
    }
  }
  return buf[0];
}

// ------------------------------------------------------------- LUT reads
//
// Each reader returns every lane's addressed bit as the faulted LUT
// delivers it, bit-identical per lane to CodedLut::read. `addr` is the
// read's address, classified once by lut_read; `mask` is always a real
// (possibly all-zero) mask: the group kernel owns one. `oc` is the
// code's decode-outcome counters, null unless an anatomy sink is
// attached. With the sink off, a reader computes only what the addressed
// bit needs.

template <std::size_t W>
LaneVec<W> read_tmr(const WideLut& t, const MuxSel<W>& addr,
                    const BatchBitVec& mask, std::size_t offset,
                    const LaneVec<W>& active, obs::CodeLayerCounters* oc) {
  using V = LaneVec<W>;
  const std::size_t n = t.golden.size();
  V copies[3];
  for (std::size_t c = 0; c < 3; ++c) {
    const std::uint32_t* site = t.code->tmr_sites.data() + c * n;
    copies[c] = lane_mux<W>(addr, [&](std::size_t s) {
      return V::splat(t.golden[s]) ^ V::load(mask.row(offset + site[s]));
    });
  }
  const V voted = (copies[0] & copies[1]) | (copies[1] & copies[2]) |
                  (copies[0] & copies[2]);
  if (oc != nullptr) {
    // Compare the copies and the vote against the golden addressed bit.
    const V g = lane_mux<W>(addr, [&](std::size_t s) {
      return V::splat(t.golden[s]);
    });
    const V err = (copies[0] ^ g) | (copies[1] ^ g) | (copies[2] ^ g);
    const V wrong = voted ^ g;
    oc->reads += popcnt(active, active);
    oc->clean += popcnt(~err, active);
    oc->corrected += popcnt(err & ~wrong, active);
    oc->miscorrected += popcnt(wrong, active);
  }
  return voted;
}

/// The lane-sliced syndrome of a code whose syndrome is a function of
/// the mask alone: syn[j] per lane = XOR of that lane's mask bits over
/// code.syndrome_sites[j]. Returns the lanes with a nonzero syndrome.
template <std::size_t W>
LaneVec<W> lane_syndrome(const WideCode& code, const BatchBitVec& mask,
                         std::size_t offset, LaneVec<W>* syn) {
  using V = LaneVec<W>;
  V any = V::zero();
  for (std::size_t j = 0; j < code.syndrome_sites.size(); ++j) {
    V s = V::zero();
    for (const std::uint32_t site : code.syndrome_sites[j]) {
      s ^= V::load(mask.row(offset + site));
    }
    syn[j] = s;
    any |= s;
  }
  return any;
}

/// Hamming's repair rule, HammingCode::decode bit-sliced over the r
/// syndrome rows: the syndrome names a data position when it has at
/// least two bits set (one bit names a check position) and is at most
/// the codeword length `cw`. The comparison with the constant `cw`
/// runs from the top bit down.
template <std::size_t W>
LaneVec<W> hamming_repairs(const LaneVec<W>* syn, std::size_t r,
                           std::size_t cw) {
  using V = LaneVec<W>;
  assert(cw < (std::size_t{1} << r));
  V once = V::zero();
  V twice = V::zero();
  V below = V::zero();  // lanes whose syndrome is already below cw
  V tied = V::ones();   // lanes equal to cw in the bits seen so far
  for (std::size_t j = r; j-- > 0;) {
    twice |= once & syn[j];
    once |= syn[j];
    if ((cw >> j) & 1u) {
      below |= tied & ~syn[j];
      tied &= syn[j];
    } else {
      tied &= ~syn[j];
    }
  }
  return twice & (below | tied);
}

/// Hamming and Hsiao, the single-bit-correcting linear codes: the
/// syndrome names at most one H column, and the decoder flips the data
/// bit it names.
template <std::size_t W>
LaneVec<W> read_sec(const WideLut& t, const MuxSel<W>& addr,
                    const BatchBitVec& mask, std::size_t offset,
                    const LaneVec<W>& active, obs::CodeLayerCounters* oc) {
  using V = LaneVec<W>;
  const WideCode& code = *t.code;
  const std::size_t r = code.syndrome_sites.size();
  // The addressed data bit as the faulted string stores it.
  const V faulted = lane_mux<W>(addr, [&](std::size_t s) {
    return V::splat(t.golden[s]) ^ V::load(mask.row(offset + s));
  });
  V syn[8];
  assert(r <= 8);
  const V any = lane_syndrome<W>(code, mask, offset, syn);
  // Per lane, against the addressed data bit's H column: eq — the
  // syndrome names it, so the corrector repairs (or miscorrects) exactly
  // this bit; fp — a failing check group covers it, the naive Hamming
  // corrector's false-positive toggle.
  V eq = V::ones();
  V fp = V::zero();
  for (std::size_t j = 0; j < r; ++j) {
    const V col_j = lane_mux<W>(addr, [&](std::size_t a) {
      return V::splat(code.column_leaves[j][a]);
    });
    eq &= ~(syn[j] ^ col_j);
    fp |= syn[j] & col_j;
  }
  if (oc == nullptr && t.coding != LutCoding::kHamming) {
    // Hsiao and ideal Hamming touch only the bit the syndrome names;
    // whether the decoder calls the syndrome a repair is for the
    // counters alone.
    return faulted ^ eq;
  }
  // Does each lane's decoder call its syndrome a repair? Hamming by its
  // rule; Hsiao, with the sink on only, through a mux over the 2^r
  // constant leaves that the syndrome words drive.
  const V repair =
      t.coding == LutCoding::kHsiao
          ? lane_mux<W>(MuxSel<W>(r, syn),
                        [&](std::size_t s) {
                          return V::splat(code.repair_leaves[s]);
                        })
          : hamming_repairs<W>(syn, r, code.codeword_bits);
  if (oc != nullptr) {
    // Word-parallel flip census over the stored segment: `once` marks
    // lanes with >= 1 flip, `twice` lanes with >= 2.
    V once = V::zero();
    V twice = V::zero();
    for (std::size_t s = 0; s < t.sites; ++s) {
      const V w = V::load(mask.row(offset + s));
      twice |= once & w;
      once |= w;
    }
    oc->reads += popcnt(active, active);
    oc->clean += popcnt(~once, active);
    // Zero syndrome despite flips: an aliased multi-bit fault.
    oc->undetected += popcnt(once & ~any, active);
    // A repair with one flip is genuine (a single flip's syndrome is its
    // own column); with two or more it is a miscorrection.
    oc->corrected += popcnt(repair & once & ~twice, active);
    oc->miscorrected += popcnt(repair & twice, active);
    if (t.coding == LutCoding::kHamming) {
      oc->false_positive += popcnt(any & ~repair & fp, active);
      oc->detected_uncorrectable += popcnt(any & ~repair & ~fp, active);
    } else {
      oc->detected_uncorrectable += popcnt(any & ~repair, active);
    }
  }
  if (t.coding != LutCoding::kHamming) {
    return faulted ^ eq;
  }
  // eq implies a data syndrome, so the two toggle sources are disjoint.
  return faulted ^ eq ^ (any & ~repair & fp);
}

/// Bit-sliced GF(16) product c * x for a mirror-time constant c. Keep it
/// branch-free: an `if (bit) acc ^= x[b]` form of this loop has been
/// reported miscompiled by GCC 12 at -O2 at W = 2 on the AVX tiers.
template <std::size_t W>
inline void gf_mul_const(const GfConstMatrix& c, const LaneVec<W>* x,
                         LaneVec<W>* out) {
  using V = LaneVec<W>;
  for (std::size_t t = 0; t < 4; ++t) {
    V acc = V::zero();
    for (std::size_t b = 0; b < 4; ++b) {
      acc ^= x[b] & V::splat(c.m[t][b]);
    }
    out[t] = acc;
  }
}

// Rs16Code caps a codeword at 15 symbols, two of them parity.
constexpr std::size_t kRsDataBitsMax = 4 * 13;

/// Reed-Solomon over GF(16), single-symbol correcting. GF(2)-linear too:
/// the bit-sliced syndromes S1, S2 come from the mask alone; per codeword
/// symbol j the decoder locates the error at j when S1 * alpha^j == S2
/// and S1 != 0, and adds the magnitude S1 * alpha^-j to that symbol.
/// Kept out of line so the TMR and Hamming readers inline as before.
template <std::size_t W>
[[gnu::noinline]] LaneVec<W> read_rs(const WideLut& t, const MuxSel<W>& addr,
                                     const BatchBitVec& mask,
                                     std::size_t offset,
                                     const LaneVec<W>& active,
                                     obs::CodeLayerCounters* oc) {
  using V = LaneVec<W>;
  const WideCode& code = *t.code;
  const std::size_t n = t.golden.size();
  assert(n <= kRsDataBitsMax && code.syndrome_sites.size() == 8);
  V syn[8];  // S1 bits 0-3, then S2 bits 0-3
  const V any = lane_syndrome<W>(code, mask, offset, syn);
  const V s1_nonzero = syn[0] | syn[1] | syn[2] | syn[3];
  // fix[p]: the repair's flip of data site p (symbol 2 + p / 4, bit
  // p % 4), filled by locate(2 + p / 4). Parity symbols 0 and 1 never
  // touch data; only the counters need to know when the decoder locates
  // an error there. locate(j) returns the lanes that locate it at j.
  V fix[kRsDataBitsMax];
  const auto locate = [&](std::size_t j) {
    V loc[4];
    gf_mul_const<W>(code.rs_locate[j], syn, loc);
    const V at = s1_nonzero & ~((loc[0] ^ syn[4]) | (loc[1] ^ syn[5]) |
                                (loc[2] ^ syn[6]) | (loc[3] ^ syn[7]));
    if (j >= 2) {
      V e[4];
      gf_mul_const<W>(code.rs_magnitude[j], syn, e);
      for (std::size_t b = 0; b < 4; ++b) {
        fix[(j - 2) * 4 + b] = at & e[b];
      }
    }
    return at;
  };
  // Bit i: data symbol 2 + i has its fix[] filled.
  std::uint32_t ready = 0;
  if (oc != nullptr) {
    V located = V::zero();
    for (std::size_t j = 0; j < code.rs_locate.size(); ++j) {
      located |= locate(j);
    }
    ready = ~std::uint32_t{0};
    // "Genuine" is judged by outcome, as in CodedLut::read_rs: does the
    // repair leave every data site golden?
    V once = V::zero();
    V bad = V::zero();
    for (std::size_t s = 0; s < t.sites; ++s) {
      const V w = V::load(mask.row(offset + s));
      once |= w;
      if (s < n) {
        bad |= w ^ fix[s];
      }
    }
    oc->reads += popcnt(active, active);
    oc->clean += popcnt(~once, active);
    oc->undetected += popcnt(once & ~any, active);
    oc->corrected += popcnt(located & ~bad, active);
    oc->miscorrected += popcnt(located & bad, active);
    oc->detected_uncorrectable += popcnt(any & ~located, active);
  }
  // Sink off: a data symbol is located the first time the tree asks for
  // one of its leaves, so an unmixed address decodes one symbol.
  return lane_mux<W>(addr, [&](std::size_t s) {
    const std::size_t symbol = s / 4;
    if (((ready >> symbol) & 1u) == 0) {
      locate(2 + symbol);
      ready |= std::uint32_t{1} << symbol;
    }
    return V::splat(t.golden[s]) ^ V::load(mask.row(offset + s)) ^ fix[s];
  });
}

/// A CodedLut read; `sink` is the anatomy sink or null.
template <std::size_t W>
LaneVec<W> lut_read(const WideLut& t, const LaneVec<W>* addr_bits,
                    const BatchBitVec& mask, std::size_t offset,
                    const LaneVec<W>& active, obs::Counters* sink) {
  using V = LaneVec<W>;
  assert(offset + t.sites <= mask.sites());
  const MuxSel<W> addr(t.inputs, addr_bits);
  // Tested here, not in the out-of-line code_layer_of: the sink is off on
  // the hot path.
  obs::CodeLayerCounters* oc =
      sink != nullptr ? code_layer_of(sink, t.coding) : nullptr;
  switch (t.coding) {
    case LutCoding::kNone:
      return lane_mux<W>(addr, [&](std::size_t s) {
        return V::splat(t.golden[s]) ^ V::load(mask.row(offset + s));
      });
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      return read_tmr<W>(t, addr, mask, offset, active, oc);
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
    case LutCoding::kHsiao:
      return read_sec<W>(t, addr, mask, offset, active, oc);
    case LutCoding::kReedSolomon:
      return read_rs<W>(t, addr, mask, offset, active, oc);
  }
  return V::zero();
}

// --------------------------------------------------------- netlist eval

/// A signal's lane row: an input, a node row of `nodes`, or a constant.
template <std::size_t W>
inline LaneVec<W> signal_word(Signal s, const LaneVec<W>* inputs,
                              const std::uint64_t* nodes) {
  switch (s.kind()) {
    case Signal::Kind::kInput:
      return inputs[s.index()];
    case Signal::Kind::kNode:
      return LaneVec<W>::load(nodes + s.index() * W);
    case Signal::Kind::kConstZero:
      return LaneVec<W>::zero();
    case Signal::Kind::kConstOne:
      return LaneVec<W>::ones();
  }
  return LaneVec<W>::zero();
}

/// Parallel-pattern evaluation of `nl` under the mask segment at
/// `offset`, bit-identical per lane to Netlist::evaluate: node i's lane
/// row lands at nodes[i*W .. i*W+W).
template <std::size_t W>
void eval_netlist(const Netlist& nl, const LaneVec<W>* inputs,
                  const BatchBitVec& mask, std::size_t offset,
                  std::uint64_t* nodes) {
  using V = LaneVec<W>;
  const std::vector<Netlist::Gate>& gates = nl.gates();
  assert(offset + gates.size() <= mask.sites());
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Netlist::Gate& g = gates[i];
    V v = V::zero();
    switch (g.op) {
      case GateOp::kBuf:
        v = signal_word<W>(g.fanin[0], inputs, nodes);
        break;
      case GateOp::kNot:
        v = ~signal_word<W>(g.fanin[0], inputs, nodes);
        break;
      case GateOp::kAndN:
        v = V::ones();
        for (const Signal s : g.fanin) {
          v &= signal_word<W>(s, inputs, nodes);
        }
        break;
      case GateOp::kOrN:
        for (const Signal s : g.fanin) {
          v |= signal_word<W>(s, inputs, nodes);
        }
        break;
      case GateOp::kXorN:
        for (const Signal s : g.fanin) {
          v ^= signal_word<W>(s, inputs, nodes);
        }
        break;
    }
    v ^= V::load(mask.row(offset + i));
    v.store(nodes + i * W);
  }
}

/// A gate-level HwTmrLut read (the hw cores): the read-path netlist over
/// the 4 address rows and the storage rows (three blocked copies of the
/// golden leaves, each XOR its mask row), its gate faults at the sites
/// after the storage. Bit-identical per lane to HwTmrLut::read, and like
/// it, counts nothing into the anatomy.
template <std::size_t W>
LaneVec<W> hw_lut_read(const WideMirror::Core& core, const WideLut& t,
                       const LaneVec<W>* addr_bits, const BatchBitVec& mask,
                       std::size_t offset, std::uint64_t* nodes) {
  using V = LaneVec<W>;
  constexpr std::size_t kAddr = 4;
  constexpr std::size_t kStorage = 3 * 16;
  assert(t.inputs == kAddr && t.golden.size() == 16);
  V inputs[kAddr + kStorage];
  std::copy_n(addr_bits, kAddr, inputs);
  for (std::size_t s = 0; s < kStorage; ++s) {
    inputs[kAddr + s] =
        V::splat(t.golden[s % 16]) ^ V::load(mask.row(offset + s));
  }
  eval_netlist<W>(*core.netlist, inputs, mask, offset + kStorage, nodes);
  return signal_word<W>(core.lut_out, inputs, nodes);
}

// ------------------------------------------------------- cores & voters

/// Lane-sliced result of one module computation: value[b] holds result
/// bit b across lanes; valid/disagreement are lane predicates.
template <std::size_t W>
struct WideOut {
  LaneVec<W> value[8];
  LaneVec<W> valid;
  LaneVec<W> disagreement;
};

/// Execution context of the shared slice plan (plan::compute_slices in
/// alu/slice_plan.hpp) at W lane words, for LutCoreAlu's and
/// HwLutCoreAlu's cores alike: `read_lut(i, addr)` reads LUT i of the
/// core's block at the 4 address rows `addr`.
template <std::size_t W, class ReadLut>
struct WideSliceExec {
  using Bit = LaneVec<W>;

  ReadLut read_lut;
  LaneVec<W>* out;  ///< 8 result rows

  static Bit broadcast(bool bit) { return Bit::splat(lane_broadcast(bit)); }
  Bit read(std::size_t i, const Bit addr[4]) { return read_lut(i, addr); }
  void emit(std::size_t slice, const Bit& bit) { out[slice] = bit; }
};

/// A CmosCoreAlu pass: the core netlist on broadcast operands.
template <std::size_t W>
void eval_cmos_core(const WideMirror::Core& core, Opcode op, std::uint8_t a,
                    std::uint8_t b, const BatchBitVec& mask,
                    std::size_t offset, LaneVec<W> out[8],
                    std::uint64_t* nodes) {
  using V = LaneVec<W>;
  V inputs[19];
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = V::splat(lane_broadcast((a >> i) & 1u));
    inputs[8 + i] = V::splat(lane_broadcast((b >> i) & 1u));
  }
  const auto opbits = static_cast<std::uint32_t>(op);
  for (std::size_t i = 0; i < 3; ++i) {
    inputs[16 + i] = V::splat(lane_broadcast((opbits >> i) & 1u));
  }
  eval_netlist<W>(*core.netlist, inputs, mask, offset, nodes);
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = signal_word<W>(core.result[i], inputs, nodes);
  }
}

/// Module-vote anatomy: which copies the majority outvoted, and lanes
/// where the voter's own faults moved its output (`valid_self` adds the
/// valid-bit vote's).
template <std::size_t W>
void account_vote(obs::Counters& sink, const LaneVec<W> x[8],
                  const LaneVec<W> y[8], const LaneVec<W> z[8],
                  const WideOut<W>& out, const LaneVec<W>& valid_self,
                  const LaneVec<W>& active) {
  using V = LaneVec<W>;
  auto& m = sink.module_level;
  m.votes += popcnt(active, active);
  V dx = V::zero();
  V dy = V::zero();
  V dz = V::zero();
  V self = valid_self;
  for (std::size_t i = 0; i < 8; ++i) {
    const V maj = (x[i] & y[i]) | (y[i] & z[i]) | (x[i] & z[i]);
    dx |= x[i] ^ maj;
    dy |= y[i] ^ maj;
    dz |= z[i] ^ maj;
    self |= out.value[i] ^ maj;
  }
  m.copies_outvoted +=
      popcnt(dx, active) + popcnt(dy, active) + popcnt(dz, active);
  m.voter_self_faults += popcnt(self, active);
}

/// A LutVoter vote: 8 value LUTs and the valid-majority LUT.
template <std::size_t W>
void lut_vote(const WideLutBlock& blk, const LaneVec<W> x[8],
              const LaneVec<W> y[8], const LaneVec<W> z[8],
              const LaneVec<W>& vx, const LaneVec<W>& vy,
              const LaneVec<W>& vz, const BatchBitVec& mask,
              std::size_t offset, const LaneVec<W>& active, WideOut<W>& out,
              obs::Counters* sink) {
  using V = LaneVec<W>;
  V value_diff = V::zero();
  for (std::size_t i = 0; i < 8; ++i) {
    value_diff |= (x[i] ^ y[i]) | (y[i] ^ z[i]);
  }
  out.disagreement = value_diff | (vx ^ vy) | (vy ^ vz);
  for (std::size_t i = 0; i < 8; ++i) {
    const V addr[4] = {x[i], y[i], z[i], V::zero()};
    out.value[i] = lut_read<W>(blk.lut(i), addr, mask, offset + blk.offset(i),
                               active, sink);
  }
  const V vaddr[4] = {vx, vy, vz, V::zero()};
  out.valid = lut_read<W>(blk.lut(8), vaddr, mask, offset + blk.offset(8),
                          active, sink);
  if (sink != nullptr) {
    const V majv = (vx & vy) | (vy & vz) | (vx & vz);
    account_vote<W>(*sink, x, y, z, out, out.valid ^ majv, active);
  }
}

/// A CmosVoter vote: the voter netlist over the three copies.
template <std::size_t W>
void cmos_vote(const WideMirror::Voter& voter, const LaneVec<W> x[8],
               const LaneVec<W> y[8], const LaneVec<W> z[8],
               const BatchBitVec& mask, std::size_t offset,
               const LaneVec<W>& active, WideOut<W>& out,
               obs::Counters* sink, std::uint64_t* nodes) {
  using V = LaneVec<W>;
  V inputs[24];
  for (std::size_t i = 0; i < 8; ++i) {
    inputs[i] = x[i];
    inputs[8 + i] = y[i];
    inputs[16 + i] = z[i];
  }
  eval_netlist<W>(*voter.netlist, inputs, mask, offset, nodes);
  for (std::size_t i = 0; i < 8; ++i) {
    out.value[i] = signal_word<W>(voter.majority[i], inputs, nodes);
  }
  out.valid = V::ones();
  out.disagreement = signal_word<W>(voter.error, inputs, nodes);
  if (sink != nullptr) {
    account_vote<W>(*sink, x, y, z, out, V::zero(), active);
  }
}

// ------------------------------------------------------ module execution

/// Execution context of the shared module plan
/// (plan::compute_single/space/time in alu/module_plan.hpp) at W lane
/// words.
template <std::size_t W>
struct WideModuleExec {
  struct Result {
    LaneVec<W> w[8];
  };
  using Valid = LaneVec<W>;

  Opcode op;
  std::uint8_t a;
  std::uint8_t b;
  const BatchBitVec* mask;  ///< never null in the wide engine
  LaneVec<W> active;
  obs::Counters* sink;      ///< the anatomy sink, or null
  const WideMirror* mirror;
  std::uint64_t* nodes;     ///< arena netlist scratch
  WideOut<W>* out;

  static Valid valid_true() { return LaneVec<W>::ones(); }
  [[nodiscard]] std::size_t core_sites() const {
    return mirror->cores()[0].sites;
  }
  [[nodiscard]] std::size_t voter_sites() const {
    return mirror->voter()->sites;
  }

  /// The slice plan over a LUT core, `read_lut` reading its LUTs.
  template <class ReadLut>
  void eval_slices(ReadLut read_lut, Result& r) {
    plan::compute_slices(WideSliceExec<W, ReadLut>{read_lut, r.w}, op, a, b,
                         kWordBits);
  }

  void eval_core(std::size_t core, std::size_t offset, Result& r) {
    const WideMirror::Core& c = mirror->cores()[core];
    const WideLutBlock& blk = c.block;
    switch (c.kind) {
      case WideMirror::PartKind::kLut:
        eval_slices(
            [&](std::size_t i, const LaneVec<W>* addr) {
              return lut_read<W>(blk.lut(i), addr, *mask,
                                 offset + blk.offset(i), active, sink);
            },
            r);
        break;
      case WideMirror::PartKind::kHwLut:
        // The hw and CMOS cores match their scalar datapaths: no
        // correction telemetry.
        eval_slices(
            [&](std::size_t i, const LaneVec<W>* addr) {
              return hw_lut_read<W>(c, blk.lut(i), addr, *mask,
                                    offset + blk.offset(i), nodes);
            },
            r);
        break;
      case WideMirror::PartKind::kCmos:
        eval_cmos_core<W>(c, op, a, b, *mask, offset, r.w, nodes);
        break;
    }
  }

  void absorb_stored(Result& r, Valid& v, std::size_t slot) {
    using V = LaneVec<W>;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      r.w[bit] ^= V::load(mask->row(slot + bit));
    }
    v = ~V::load(mask->row(slot + 8));
    if (sink != nullptr) {
      std::uint64_t hits = 0;
      for (std::size_t bit = 0; bit < plan::kStoredBitsPerPass; ++bit) {
        hits += popcnt(V::load(mask->row(slot + bit)), active);
      }
      sink->module_level.storage_faults += hits;
    }
  }

  void vote(const Result r[3], const Valid v[3], std::size_t voter_off) {
    const WideMirror::Voter& vt = *mirror->voter();
    if (vt.kind == WideMirror::PartKind::kLut) {
      lut_vote<W>(vt.block, r[0].w, r[1].w, r[2].w, v[0], v[1], v[2], *mask,
                  voter_off, active, *out, sink);
    } else {
      // The CMOS module has no data-valid datapath (v[] unused), exactly
      // like the scalar CmosVoter.
      cmos_vote<W>(vt, r[0].w, r[1].w, r[2].w, *mask, voter_off, active,
                   *out, sink, nodes);
    }
  }

  void emit_single(const Result& r) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      out->value[bit] = r.w[bit];
    }
    out->valid = LaneVec<W>::ones();
    out->disagreement = LaneVec<W>::zero();
  }
};

// -------------------------------------------------------- lockstep masks
//
// Under gen.uniform_count() every lane's mask is the same k Floyd steps,
// step j drawing below(j + 1) from the lane's own generator, so a block
// of kDrawBlock lanes takes each step together. Each xoshiro256** state
// word of the block is one DrawVec, held in a register across all of
// the block's steps, and lemire_product builds Lemire's 128-bit product
// x * bound from two vpmuludq on the AVX tiers. kDrawTile steps are
// drawn before the block's test-and-set writes into the site-major rows.
//
// Each lane still consumes exactly its scalar trial's draws, in order.
// Lemire's slow path (low product < bound, about sites / 2^64 a draw,
// which no real seed has reached) is OR-accumulated over the tile and
// tested once after it: a live lane that took it redraws its whole tile
// with Rng::below from its state at the tile's start, which is what the
// scalar loop draws. Idle lanes of a ragged block step along in lockstep
// but never write a bit or redraw.
//
// The two constants (in the tier-width ladder at the top of this file)
// are not knobs: each was picked by timing the layer
// alone (aluss at 2% / 10%, 512 lanes, one thread, GCC 12 -O3 on a
// 4-vCPU AVX-512 host, all variants interleaved in one process; ns per
// draw):
//   kDrawBlock — lanes stepped together: one register of 64-bit states,
//     a zmm under AVX-512, a ymm under AVX2, a general register on the
//     portable tier. Two registers a word spill: 16 lanes ran 3.5 / 4.2
//     on AVX-512 against 1.7 / 2.5, 8 lanes 6.6 / 8.0 on AVX2 against
//     2.0 / 2.9;
//   kDrawTile — Floyd steps drawn before the block's writes. A short
//     tile lets one tile's draws overlap the last one's random writes:
//     AVX-512 16 (1.7 / 2.6; 8: 1.7 / 2.8; 64: 2.1 / 3.1), AVX2 8
//     (2.1 / 3.3; 1: 3.8 / 4.7; 64: 2.6 / 3.8), portable 8 (3.2 / 4.7;
//     1: 5.2 / 6.8; 64: 3.5 / 4.9).
static_assert(kLanesPerWord % kDrawBlock == 0);

/// One 64-bit word of each of a block's lanes.
using DrawVec = std::uint64_t __attribute__((vector_size(8 * kDrawBlock)));

/// Per lane, Lemire's 128-bit product x * bound (bound < 2^32) as its
/// high and low words.
inline void lemire_product(DrawVec x, DrawVec bound, DrawVec& high,
                           DrawVec& low) {
#if defined(__AVX2__)
  // Two 32x32-bit products, one vpmuludq each: exact, and the sum cannot
  // carry, because bound < 2^32. GCC 12 compiles the portable spelling
  // (x & 0xffffffff) * bound as a 64x64-bit product: vpmullq on AVX-512,
  // three multiplies on AVX2.
  const auto mul_u32 = [](DrawVec a, DrawVec b) {
#if defined(__AVX512F__)
    // The zero-masking form: the unmasked one trips GCC 12's
    // -Wmaybe-uninitialized in its own header.
    return reinterpret_cast<DrawVec>(_mm512_maskz_mul_epu32(
        0xff, reinterpret_cast<__m512i>(a), reinterpret_cast<__m512i>(b)));
#else
    return reinterpret_cast<DrawVec>(_mm256_mul_epu32(
        reinterpret_cast<__m256i>(a), reinterpret_cast<__m256i>(b)));
#endif
  };
  const DrawVec pl = mul_u32(x, bound);
  const DrawVec mid = mul_u32(x >> 32, bound) + (pl >> 32);
  high = mid >> 32;
  low = (mid << 32) | (pl & 0xffffffffu);
#else
  // One lane: one 64x64-bit mul, as in Rng::below.
  const __uint128_t m = static_cast<__uint128_t>(x[0]) * bound[0];
  high = DrawVec{static_cast<std::uint64_t>(m >> 64)};
  low = DrawVec{static_cast<std::uint64_t>(m)};
#endif
}

/// Lanes [first, first + live) of a group, live <= kDrawBlock: the
/// block's Floyd steps j = n - k .. n - 1, a tile at a time, each tile
/// followed by the per-lane test-and-set into the site-major rows (row0
/// = site 0's row, `stride` words per row). Aligned so that an edit
/// elsewhere in the tier cannot move its loops against cache lines.
[[gnu::noinline, gnu::aligned(64)]] inline void floyd_block(
    LaneRngStates& st, std::size_t first, std::size_t live, std::size_t n,
    std::size_t k, std::uint64_t* row0, std::size_t stride) {
  DrawVec s0;
  DrawVec s1;
  DrawVec s2;
  DrawVec s3;
  std::memcpy(&s0, &st.s[0][first], sizeof s0);
  std::memcpy(&s1, &st.s[1][first], sizeof s1);
  std::memcpy(&s2, &st.s[2][first], sizeof s2);
  std::memcpy(&s3, &st.s[3][first], sizeof s3);
  // kDrawBlock divides 64, so a block's lanes share one lane word.
  std::uint64_t* col = row0 + first / kLanesPerWord;
  const std::size_t shift = first % kLanesPerWord;
  std::uint64_t t[kDrawTile][kDrawBlock];
  std::uint64_t start[4][kDrawBlock];
  for (std::size_t j0 = n - k; j0 < n; j0 += kDrawTile) {
    const std::size_t steps = std::min(kDrawTile, n - j0);
    std::memcpy(start[0], &s0, sizeof s0);
    std::memcpy(start[1], &s1, sizeof s1);
    std::memcpy(start[2], &s2, sizeof s2);
    std::memcpy(start[3], &s3, sizeof s3);
    DrawVec slow = {};
    for (std::size_t i = 0; i < steps; ++i) {
      const DrawVec bound = DrawVec{} + (j0 + i + 1);
      const DrawVec x = xoshiro256ss_step(s0, s1, s2, s3);
      DrawVec high;
      DrawVec low;
      lemire_product(x, bound, high, low);
      std::memcpy(t[i], &high, sizeof high);
      slow |= reinterpret_cast<DrawVec>(low < bound);
    }
    std::uint64_t redraw[kDrawBlock];
    std::memcpy(redraw, &slow, sizeof slow);
    std::uint64_t any = 0;
    for (std::size_t b = 0; b < live; ++b) {
      any |= redraw[b];
    }
    if (any != 0) [[unlikely]] {
      std::uint64_t now[4][kDrawBlock];
      std::memcpy(now[0], &s0, sizeof s0);
      std::memcpy(now[1], &s1, sizeof s1);
      std::memcpy(now[2], &s2, sizeof s2);
      std::memcpy(now[3], &s3, sizeof s3);
      for (std::size_t b = 0; b < live; ++b) {
        if (redraw[b] == 0) {
          continue;
        }
        Rng lane;
        lane.set_state({start[0][b], start[1][b], start[2][b], start[3][b]});
        for (std::size_t i = 0; i < steps; ++i) {
          t[i][b] = lane.below(j0 + i + 1);
        }
        const std::array<std::uint64_t, 4> s = lane.state();
        for (std::size_t w = 0; w < 4; ++w) {
          now[w][b] = s[w];
        }
      }
      std::memcpy(&s0, now[0], sizeof s0);
      std::memcpy(&s1, now[1], sizeof s1);
      std::memcpy(&s2, now[2], sizeof s2);
      std::memcpy(&s3, now[3], sizeof s3);
    }
    for (std::size_t b = 0; b < live; ++b) {
      const std::uint64_t bit = std::uint64_t{1} << (shift + b);
      for (std::size_t i = 0; i < steps; ++i) {
        // The mask is Floyd's chosen-set, exactly as in generate_into.
        const std::size_t site =
            (col[t[i][b] * stride] & bit) != 0 ? j0 + i : t[i][b];
        col[site * stride] |= bit;
      }
    }
  }
  std::memcpy(&st.s[0][first], &s0, sizeof s0);
  std::memcpy(&st.s[1][first], &s1, sizeof s1);
  std::memcpy(&st.s[2][first], &s2, sizeof s2);
  std::memcpy(&st.s[3][first], &s3, sizeof s3);
}

/// The tier's LaneKernels::lockstep_masks.
inline void lockstep_masks(const MaskGenerator& gen, LaneRngStates& states,
                           unsigned lanes, BatchBitVec& mask) {
  assert(gen.uniform_count() && gen.sites() <= 0xffffffffu);
  assert(mask.sites() >= gen.sites());
  assert(lanes <= mask.lane_words() * kLanesPerWord);
  const std::size_t k = gen.faults_per_computation();
  if (k == 0) {
    return;
  }
  for (std::size_t first = 0; first < lanes; first += kDrawBlock) {
    floyd_block(states, first,
                std::min<std::size_t>(kDrawBlock, lanes - first), gen.sites(),
                k, mask.row(0), mask.lane_words());
  }
}

// ---------------------------------------------------------- group kernel

/// One lane group end to end: per instruction, fresh masks for every
/// lane, the mirror evaluated across all lanes, and each lane scored
/// against the golden result into incorrect[].
template <std::size_t W>
void run_group_impl(const WideGroupJob& job) {
  using V = LaneVec<W>;
  const WideMirror& mir = *job.mirror;
  WideArena& ar = *job.arena;
  const unsigned in_group = job.in_group;
  const V active = active_mask<W>(in_group);
  BatchBitVec& mask = ar.mask;
  assert(mask.sites() == job.total_sites && mask.lane_words() == W);
  assert(ar.rngs.size() == in_group && ar.lane_states != nullptr);
  assert(ar.incorrect.size() >= in_group);

  // The anatomy sink, passed to the kernels as is; null when off.
  obs::Counters* oc = job.anatomy;
  // The i.i.d. counting policies draw through the lockstep mask layer
  // on the group's states as SoA, loaded once here. Wear-out schedules
  // (job.gens: each lane runs at its own effective rate), Bernoulli and
  // burst draw per lane.
  const bool lockstep = job.gens == nullptr && job.gen->uniform_count();
  if (lockstep) {
    ar.lane_states->load(ar.rngs.data(), in_group);
  }
  std::uint32_t* incorrect = ar.incorrect.data();
  WideOut<W> out;
  for (std::size_t n = 0; n < job.stream_len; ++n) {
    const Instruction& ins = job.stream[n];
    mask.clear_all();
    if (lockstep) {
      lockstep_masks(*job.gen, *ar.lane_states, in_group, mask);
    } else {
      for (unsigned l = 0; l < in_group; ++l) {
        const MaskGenerator& gen =
            job.gens != nullptr ? job.gens[l] : *job.gen;
        gen.generate(ar.rngs[l], mask, l);
      }
    }
    if (oc != nullptr) {
      oc->injection.masks_generated += in_group;
      if (lockstep) {
        // Floyd's sampling sets exactly k distinct sites per lane: the
        // scalar engine's shortcut, without popcounting the mask.
        oc->injection.faults_injected +=
            job.gen->faults_per_computation() * in_group;
      } else {
        std::uint64_t flipped = 0;
        for (std::size_t s = 0; s < job.inject_sites; ++s) {
          flipped += popcnt(V::load(mask.row(s)), active);
        }
        oc->injection.faults_injected += flipped;
      }
    }
    WideModuleExec<W> ex{ins.op, ins.a, ins.b,           &mask, active,
                         oc,     &mir,  ar.nodes.data(), &out};
    switch (mir.level()) {
      case WideMirror::Level::kSingle:
        plan::compute_single(ex);
        break;
      case WideMirror::Level::kSpace:
        plan::compute_space(ex);
        break;
      case WideMirror::Level::kTime:
        plan::compute_time(ex);
        break;
    }
    V wrong = V::zero();
    for (unsigned bit = 0; bit < 8; ++bit) {
      wrong |= out.value[bit] ^ V::splat(lane_broadcast((ins.golden >> bit) & 1u));
    }
    const V missed = wrong & active;
    for (std::size_t wi = 0; wi < W; ++wi) {
      for (std::uint64_t rest = missed.word(wi); rest != 0;
           rest &= rest - 1) {
        ++incorrect[wi * kLanesPerWord +
                    static_cast<unsigned>(std::countr_zero(rest))];
      }
    }
    if (oc != nullptr) {
      // Lane-sliced version of run_trial's end-to-end classification.
      auto& e = oc->end_to_end;
      const V flagged = out.disagreement | ~out.valid;
      e.instructions += in_group;
      e.caught_errors += popcnt(wrong & flagged, active);
      e.silent_corruptions += popcnt(wrong & ~flagged, active);
      e.false_alarms += popcnt(~wrong & flagged, active);
      e.correct += popcnt(~wrong & ~flagged, active);
    }
  }
}

}  // namespace NBX_SIMD_NS
}  // namespace nbx::simd
