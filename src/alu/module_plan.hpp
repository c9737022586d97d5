// module_plan.hpp — the module-level execution plan, written once and
// instantiated at every lane width.
//
// The paper's module-level techniques (§2.2) are mask-segment layouts
// plus an order of operations:
//
//   SingleAlu          [core]
//   SpaceRedundantAlu  [core0 | core1 | core2 | voter]
//   TimeRedundantAlu   [pass0 | pass1 | pass2 | voter | 3x9 storage bits]
//
// The plan is a set of templates over an *execution context* — a small
// policy type that knows how to evaluate one core pass, absorb one
// stored-result slot and run one vote at its lane width. Two contexts
// consume it: ScalarModuleExec below (one trial, std::uint8_t results,
// used by module_alu.cpp) and WideModuleExec in
// simd/lane_engine_inl.hpp (64..512 trial lanes, lane-sliced results).
// The segment offsets, the 9-bit stored-result slots and the vote wiring
// therefore exist once, and the two engines cannot disagree about them.
//
// An execution context provides:
//   Result / Valid      — lane value and lane predicate types
//   valid_true()        — the "all replicas valid" constant
//   core_sites()        — fault sites of one core pass
//   voter_sites()       — fault sites of the voter
//   eval_core(i, off, r)         — run core i against mask segment `off`
//   absorb_stored(r, v, slot)    — XOR the 9-bit stored-result slot into
//                                  (r, v), counting storage-fault hits
//   vote(r[3], v[3], off)        — module vote against segment `off`
//   emit_single(r)               — publish an unvoted single-pass result
#pragma once

#include <cstdint>

#include "alu/module_alu.hpp"
#include "alu/voter.hpp"
#include "obs/counters.hpp"

namespace nbx::plan {

/// One stored inter-operation result: 8 data bits + 1 valid flag
/// (paper §4; three slots give Table 2's +27 in every alut* row).
inline constexpr std::size_t kStoredBitsPerPass = 9;
static_assert(3 * kStoredBitsPerPass == kTimeRedundancyStorageBits);

/// No module-level redundancy: one pass, no voter.
template <typename Exec>
void compute_single(Exec& ex) {
  typename Exec::Result r{};
  ex.eval_core(0, 0, r);
  ex.emit_single(r);
}

/// Space redundancy: three concurrent cores, each against its own mask
/// segment, then one vote. All replicas enter the vote valid.
template <typename Exec>
void compute_space(Exec& ex) {
  const std::size_t n = ex.core_sites();
  typename Exec::Result r[3];
  for (std::size_t i = 0; i < 3; ++i) {
    ex.eval_core(i, i * n, r[i]);
  }
  const typename Exec::Valid v[3] = {Exec::valid_true(), Exec::valid_true(),
                                     Exec::valid_true()};
  ex.vote(r, v, 3 * n);
}

/// Time redundancy: the ONE physical core runs three passes, each pass
/// against its own fresh mask segment (transients strike independently
/// per execution — why Table 2 counts the same datapath sites as three
/// spatial copies). Each pass's result waits in a 9-bit storage slot
/// whose bits are themselves fault sites, then all three are voted.
template <typename Exec>
void compute_time(Exec& ex) {
  const std::size_t n = ex.core_sites();
  const std::size_t voter_off = 3 * n;
  const std::size_t storage_off = voter_off + ex.voter_sites();
  typename Exec::Result r[3];
  typename Exec::Valid v[3];
  for (std::size_t i = 0; i < 3; ++i) {
    ex.eval_core(0, i * n, r[i]);
    v[i] = Exec::valid_true();
    ex.absorb_stored(r[i], v[i], storage_off + i * kStoredBitsPerPass);
  }
  ex.vote(r, v, voter_off);
}

// ---------------------------------------------------------------------
// Scalar context: one trial, used by module_alu.cpp.

struct ScalarModuleExec {
  using Result = std::uint8_t;
  using Valid = bool;

  Opcode op;
  std::uint8_t a;
  std::uint8_t b;
  MaskView mask;
  obs::Counters* sink;          ///< fault anatomy; null = off
  const CoreAlu* const* cores;  ///< 1 (single/time) or 3 (space) entries
  const IVoter* voter;          ///< null for single
  AluOutput out;

  static constexpr bool valid_true() { return true; }
  [[nodiscard]] std::size_t core_sites() const {
    return cores[0]->fault_sites();
  }
  [[nodiscard]] std::size_t voter_sites() const {
    return voter->fault_sites();
  }

  void eval_core(std::size_t core, std::size_t offset, Result& r) {
    r = cores[core]->eval(op, a, b, mask.subview(offset, core_sites()),
                          sink);
  }

  void absorb_stored(Result& r, Valid& v, std::size_t slot) {
    if (mask.is_null()) {
      return;
    }
    std::uint64_t hits = 0;
    for (std::size_t bit = 0; bit < 8; ++bit) {
      if (mask.get(slot + bit)) {
        r = static_cast<std::uint8_t>(r ^ (1u << bit));
        ++hits;
      }
    }
    if (mask.get(slot + 8)) {
      v = false;
      ++hits;
    }
    if (sink != nullptr) {
      sink->module_level.storage_faults += hits;
    }
  }

  void vote(const Result r[3], const Valid v[3], std::size_t voter_off) {
    const VoteOutput o =
        voter->vote(VoteInput{r[0], r[1], r[2], v[0], v[1], v[2]},
                    mask.subview(voter_off, voter->fault_sites()), sink);
    out = AluOutput{o.value, o.valid, o.disagreement};
  }

  void emit_single(const Result& r) { out.value = r; }
};

}  // namespace nbx::plan
