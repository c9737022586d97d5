// slice_plan.hpp — the NanoBox bit slice, written once and instantiated
// for every LUT datapath, scalar and wide.
//
// Structure (decoded from Table 2's site counts — see DESIGN.md §2): a
// W-bit datapath is W ripple-carry bit slices of four 4-input (16-bit)
// lookup tables, laid back to back in one LutBlock, slice-major then
// role:
//
//   LUT L ("logic")  in: (a_i, b_i, op0, op1)      out: AND/OR/XOR of a,b
//   LUT S ("sum")    in: (a_i, b_i, cin_i, op2)    out: a ^ b ^ cin
//   LUT C ("carry")  in: (a_i, b_i, cin_i, op2)    out: op2 & majority carry
//   LUT O ("select") in: (op2, L_i, S_i, 0)        out: op2 ? S_i : L_i
//
// At 8 bits that is 32 LUTs: 32*16 = 512 sites (no code) / 32*21 = 672
// (Hamming) / 32*48 = 1536 (TMR) — exactly alunn / alunh / aluns.
//
// compute_slices is a template over an execution context, like the
// module plan (module_plan.hpp), which provides:
//   Bit                  — one signal: bool, or a lane row LaneVec<W>
//   broadcast(bit)       — a signal equal to `bit` (operand, opcode bits)
//   read(lut, addr[4])   — LUT `lut` of the block at address rows
//                          addr[0..3] (address bit j = LUT input j)
//   emit(slice, bit)     — publish result bit `slice`
// Two contexts consume it: ScalarSliceExec below (one trial; LutCoreAlu,
// HwLutCoreAlu and WideLutAlu) and WideSliceExec in
// simd/lane_engine_inl.hpp (64..512 trial lanes; the wide engine's kLut
// and kHwLut cores). The address wiring and the ripple carry therefore
// exist once, and no datapath can disagree about them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "common/bitvec.hpp"
#include "common/types.hpp"
#include "lut/coded_lut.hpp"
#include "lut/hw_lut.hpp"
#include "lut/lut_block.hpp"

namespace nbx {

/// L: (a, b, op0, op1) -> AND/OR/XOR of a,b (11 row = carry propagate).
BitVec nanobox_logic_table();
/// S: (a, b, cin, op2) -> full-adder sum (op2 is a don't-care input).
BitVec nanobox_sum_table();
/// C: (a, b, cin, op2) -> op2-gated carry out.
BitVec nanobox_carry_table();
/// O: (op2, L, S, 0) -> op2 ? S : L.
BitVec nanobox_select_table();

namespace plan {

/// Index of each LUT role within a slice.
enum SliceRole : std::size_t { kLogic = 0, kSum = 1, kCarry = 2, kSelect = 3 };
inline constexpr std::size_t kLutsPerSlice = 4;

/// The LutBlock of a `width`-slice datapath: each LUT is
/// Lut(truth table, args...), in slice-major role order.
template <class Lut, class... Args>
LutBlock<Lut> slice_block(std::size_t width, const Args&... args) {
  const BitVec tables[kLutsPerSlice] = {
      nanobox_logic_table(), nanobox_sum_table(), nanobox_carry_table(),
      nanobox_select_table()};
  LutBlock<Lut> block;
  block.reserve(width * kLutsPerSlice);
  for (std::size_t slice = 0; slice < width; ++slice) {
    for (const BitVec& tt : tables) {
      block.emplace_back(BitVec(tt), args...);
    }
  }
  return block;
}

/// One instruction through `width` slices: result bit i is slice i's
/// select output; the carry ripples from slice 0 upward (it diverges
/// between lanes after the first faulted read). `ex` is a copy, so no
/// out-of-line read can alias it and its fields stay in registers.
template <typename Exec>
void compute_slices(Exec ex, Opcode op, std::uint32_t a, std::uint32_t b,
                    std::size_t width) {
  using Bit = typename Exec::Bit;
  const auto opbits = static_cast<std::uint32_t>(op);
  const Bit op0 = ex.broadcast((opbits & 1u) != 0);
  const Bit op1 = ex.broadcast((opbits & 2u) != 0);
  const Bit op2 = ex.broadcast((opbits & 4u) != 0);
  const Bit zero = ex.broadcast(false);
  Bit cin = zero;
  for (std::size_t i = 0; i < width; ++i) {
    const Bit ai = ex.broadcast(((a >> i) & 1u) != 0);
    const Bit bi = ex.broadcast(((b >> i) & 1u) != 0);
    const std::size_t lut = i * kLutsPerSlice;

    const Bit l_addr[4] = {ai, bi, op0, op1};
    const Bit l = ex.read(lut + kLogic, l_addr);

    const Bit sc_addr[4] = {ai, bi, cin, op2};
    const Bit s = ex.read(lut + kSum, sc_addr);
    const Bit c = ex.read(lut + kCarry, sc_addr);

    const Bit o_addr[4] = {op2, l, s, zero};
    ex.emit(i, ex.read(lut + kSelect, o_addr));
    cin = c;
  }
}

// ---------------------------------------------------------------------
// Scalar context: one trial, LUT i reading its window of `mask`.

template <class Lut>
struct ScalarSliceExec {
  using Bit = bool;

  const LutBlock<Lut>& block;
  MaskView mask;
  obs::Counters* sink;                ///< fault anatomy; null = off
  std::uint64_t* tmr_disagreements;   ///< see CodedLut::read; null = off
  std::uint32_t* value;               ///< result bits, zeroed by the caller

  static constexpr bool broadcast(bool bit) { return bit; }

  [[nodiscard]] bool read(std::size_t i, const bool addr[4]) const {
    const std::uint32_t packed = (addr[0] ? 1u : 0u) | (addr[1] ? 2u : 0u) |
                                 (addr[2] ? 4u : 0u) | (addr[3] ? 8u : 0u);
    if constexpr (std::is_same_v<Lut, HwTmrLut>) {
      // Gate-level TMR reads report no code-layer anatomy.
      return block.lut(i).read(packed, block.window(mask, i));
    } else {
      return block.lut(i).read(packed, block.window(mask, i), sink,
                               tmr_disagreements);
    }
  }

  void emit(std::size_t slice, bool bit) {
    *value |= bit ? std::uint32_t{1} << slice : 0u;
  }
};

}  // namespace plan
}  // namespace nbx
