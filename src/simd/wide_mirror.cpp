#include "simd/wide_mirror.hpp"

#include <algorithm>
#include <bit>

#include "alu/cmos_core_alu.hpp"
#include "alu/lut_core_alu.hpp"
#include "alu/module_alu.hpp"
#include "alu/voter.hpp"
#include "coding/hamming.hpp"
#include "common/batch_bitvec.hpp"

namespace nbx::simd {

namespace {

/// Precomputes the decode tables of `lut` (see WideLut).
WideLut lut_tables(const CodedLut& lut) {
  WideLut t;
  t.lut = &lut;
  t.coding = lut.coding();
  t.inputs = static_cast<std::size_t>(lut.inputs());
  t.sites = lut.fault_sites();
  const std::size_t n = lut.table_bits();
  const BitVec& tt = lut.golden_table();
  t.golden.resize(n);
  for (std::size_t s = 0; s < n; ++s) {
    t.golden[s] = lane_broadcast(tt.get(s));
  }
  switch (t.coding) {
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      t.tmr_sites.resize(3 * n);
      for (std::size_t c = 0; c < 3; ++c) {
        for (std::size_t s = 0; s < n; ++s) {
          t.tmr_sites[c * n + s] = static_cast<std::uint32_t>(
              t.coding == LutCoding::kTmrInterleaved ? s * 3 + c
                                                     : c * n + s);
        }
      }
      break;
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal: {
      // The golden stored string is a codeword, so the syndrome of the
      // faulted string is a function of the mask alone: syndrome bit j
      // is the XOR of the mask bits in check group j.
      const HammingCode code(n);
      const std::size_t r = code.check_bits();
      t.syndrome_sites.resize(r);
      t.pos_leaves.assign(r, std::vector<std::uint64_t>(n));
      for (std::size_t d = 0; d < n; ++d) {
        const std::uint32_t p = code.position_of_data(d);
        for (std::size_t j = 0; j < r; ++j) {
          if ((p >> j) & 1u) {
            t.syndrome_sites[j].push_back(static_cast<std::uint32_t>(d));
          }
          t.pos_leaves[j][d] = lane_broadcast((p >> j) & 1u);
        }
      }
      for (std::size_t j = 0; j < r; ++j) {
        t.syndrome_sites[j].push_back(static_cast<std::uint32_t>(n + j));
      }
      const std::size_t cw = code.codeword_bits();
      t.is_data_leaves.resize(std::size_t{1} << r);
      for (std::size_t s = 0; s < t.is_data_leaves.size(); ++s) {
        // As HammingCode::decode: a data position is a nonzero
        // in-codeword syndrome that is not a power of two.
        t.is_data_leaves[s] =
            lane_broadcast(s >= 1 && s <= cw && !std::has_single_bit(s));
      }
      break;
    }
    case LutCoding::kNone:
    case LutCoding::kHsiao:
    case LutCoding::kReedSolomon:
      break;
  }
  return t;
}

/// Fills `out` from a recognized core; false on anything else.
bool mirror_core(const CoreAlu& core, WideMirror::Core& out) {
  out.sites = core.fault_sites();
  if (const auto* lut = dynamic_cast<const LutCoreAlu*>(&core)) {
    out.kind = WideMirror::PartKind::kLut;
    out.block.luts.reserve(LutCoreAlu::kLutCount);
    out.block.offsets.reserve(LutCoreAlu::kLutCount);
    for (std::size_t i = 0; i < LutCoreAlu::kLutCount; ++i) {
      out.block.luts.push_back(lut_tables(lut->lut_at(i)));
      out.block.offsets.push_back(lut->lut_offset(i));
    }
    return true;
  }
  if (const auto* cmos = dynamic_cast<const CmosCoreAlu*>(&core)) {
    out.kind = WideMirror::PartKind::kCmos;
    out.netlist = &cmos->netlist();
    for (std::size_t i = 0; i < 8; ++i) {
      out.result[i] = cmos->result_signal(i);
    }
    return true;
  }
  return false;
}

bool mirror_voter(const IVoter& voter, WideMirror::Voter& out) {
  out.sites = voter.fault_sites();
  if (const auto* lut = dynamic_cast<const LutVoter*>(&voter)) {
    out.kind = WideMirror::PartKind::kLut;
    out.block.luts.reserve(LutVoter::kLutCount);
    out.block.offsets.reserve(LutVoter::kLutCount);
    for (std::size_t i = 0; i < LutVoter::kLutCount; ++i) {
      out.block.luts.push_back(lut_tables(lut->lut_at(i)));
      out.block.offsets.push_back(lut->lut_offset(i));
    }
    return true;
  }
  if (const auto* cmos = dynamic_cast<const CmosVoter*>(&voter)) {
    out.kind = WideMirror::PartKind::kCmos;
    out.netlist = &cmos->netlist();
    for (std::size_t i = 0; i < 8; ++i) {
      out.majority[i] = cmos->majority_signal(i);
    }
    out.error = cmos->error_signal();
    return true;
  }
  return false;
}

}  // namespace

std::unique_ptr<WideMirror> WideMirror::create(const IAlu& alu) {
  auto m = std::make_unique<WideMirror>();
  m->alu_ = &alu;
  bool ok = true;
  if (const auto* single = dynamic_cast<const SingleAlu*>(&alu)) {
    m->level_ = Level::kSingle;
    m->cores_.resize(1);
    ok = mirror_core(single->core(), m->cores_[0]);
  } else if (const auto* space =
                 dynamic_cast<const SpaceRedundantAlu*>(&alu)) {
    m->level_ = Level::kSpace;
    m->cores_.resize(3);
    for (std::size_t i = 0; i < 3; ++i) {
      ok = ok && mirror_core(space->core(i), m->cores_[i]);
    }
    m->has_voter_ = ok && mirror_voter(space->voter(), m->voter_);
    ok = ok && m->has_voter_;
  } else if (const auto* time = dynamic_cast<const TimeRedundantAlu*>(&alu)) {
    m->level_ = Level::kTime;
    m->cores_.resize(1);
    ok = mirror_core(time->core(), m->cores_[0]);
    m->has_voter_ = ok && mirror_voter(time->voter(), m->voter_);
    ok = ok && m->has_voter_;
  } else {
    ok = false;
  }
  if (!ok) {
    m->fallback_ = true;
    m->cores_.clear();
    m->has_voter_ = false;
    return m;
  }
  for (const Core& c : m->cores_) {
    if (c.netlist != nullptr) {
      m->max_nodes_ = std::max(m->max_nodes_, c.netlist->node_count());
    }
  }
  if (m->has_voter_ && m->voter_.netlist != nullptr) {
    m->max_nodes_ = std::max(m->max_nodes_, m->voter_.netlist->node_count());
  }
  return m;
}

}  // namespace nbx::simd
