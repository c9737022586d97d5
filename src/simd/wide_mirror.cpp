#include "simd/wide_mirror.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <string>

#include "alu/cmos_core_alu.hpp"
#include "alu/hw_core_alu.hpp"
#include "alu/lut_core_alu.hpp"
#include "alu/module_alu.hpp"
#include "alu/voter.hpp"
#include "coding/gf16.hpp"
#include "coding/hamming.hpp"
#include "coding/hsiao.hpp"
#include "coding/reed_solomon.hpp"
#include "common/batch_bitvec.hpp"

namespace nbx::simd {

namespace {

using CodeTables = std::vector<std::unique_ptr<const WideCode>>;

/// Fills the tables of a linear SEC code over n data bits and r check
/// bits: data bit d has H column col(d), and check bit j (stored at
/// site n + j) the unit vector 1 << j.
template <class Column>
void linear_tables(WideCode& c, std::size_t n, std::size_t r, Column col) {
  c.syndrome_sites.resize(r);
  c.column_leaves.assign(r, std::vector<std::uint64_t>(n));
  for (std::size_t d = 0; d < n; ++d) {
    const std::uint32_t h = col(d);
    for (std::size_t j = 0; j < r; ++j) {
      if ((h >> j) & 1u) {
        c.syndrome_sites[j].push_back(static_cast<std::uint32_t>(d));
      }
      c.column_leaves[j][d] = lane_broadcast((h >> j) & 1u);
    }
  }
  for (std::size_t j = 0; j < r; ++j) {
    c.syndrome_sites[j].push_back(static_cast<std::uint32_t>(n + j));
  }
}

/// Multiplication by `c` as a bit matrix (see GfConstMatrix).
GfConstMatrix gf_const_matrix(std::uint8_t c) {
  GfConstMatrix g;
  for (std::size_t b = 0; b < 4; ++b) {
    const std::uint8_t col = gf16::mul(static_cast<std::uint8_t>(1u << b), c);
    for (std::size_t t = 0; t < 4; ++t) {
      g.m[t][b] = lane_broadcast((col >> t) & 1u);
    }
  }
  return g;
}

/// Builds the decode tables of `coding` over n-bit tables (see WideCode).
std::unique_ptr<const WideCode> build_code(LutCoding coding, std::size_t n) {
  auto c = std::make_unique<WideCode>();
  c->coding = coding;
  c->table_bits = n;
  switch (coding) {
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      c->tmr_sites.resize(3 * n);
      for (std::size_t copy = 0; copy < 3; ++copy) {
        for (std::size_t s = 0; s < n; ++s) {
          c->tmr_sites[copy * n + s] = static_cast<std::uint32_t>(
              coding == LutCoding::kTmrInterleaved ? s * 3 + copy
                                                   : copy * n + s);
        }
      }
      break;
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal: {
      // A codeword position's H column is the position itself.
      const HammingCode code(n);
      linear_tables(*c, n, code.check_bits(), [&](std::size_t d) {
        return code.position_of_data(d);
      });
      c->codeword_bits = code.codeword_bits();
      break;
    }
    case LutCoding::kHsiao: {
      // As HsiaoCode::detect_and_correct, an odd-weight syndrome is
      // corrected when it is a unit vector (a check bit) or a data
      // column.
      const HsiaoCode code(n);
      const std::size_t r = code.check_bits();
      linear_tables(*c, n, r,
                    [&](std::size_t d) { return code.data_column(d); });
      std::vector<bool> is_column(std::size_t{1} << r);
      for (std::size_t d = 0; d < n; ++d) {
        is_column[code.data_column(d)] = true;
      }
      c->repair_leaves.resize(std::size_t{1} << r);
      for (std::uint32_t s = 0; s < c->repair_leaves.size(); ++s) {
        c->repair_leaves[s] = lane_broadcast(
            (std::popcount(s) & 1) != 0 &&
            (std::has_single_bit(s) || is_column[s]));
      }
      break;
    }
    case LutCoding::kReedSolomon: {
      // Flipping bit b of codeword symbol j adds 2^b * alpha^j to S1 and
      // 2^b * alpha^2j to S2 — eight XOR rows over the stored sites. The
      // layout is Rs16Code's: parity symbols c_0, c_1 are check bits 0-7,
      // c_{2+i} is data nibble i, and bit b of a symbol is its b-th
      // stored bit.
      const Rs16Code code(n);
      const std::size_t symbols = code.codeword_symbols();
      c->syndrome_sites.resize(8);
      for (std::size_t j = 0; j < symbols; ++j) {
        const int e = static_cast<int>(j);
        for (std::size_t b = 0; b < 4; ++b) {
          const auto site = static_cast<std::uint32_t>(
              j < 2 ? n + 4 * j + b : 4 * (j - 2) + b);
          const auto flip = static_cast<std::uint8_t>(1u << b);
          const std::uint8_t s1 = gf16::mul(flip, gf16::pow_alpha(e));
          const std::uint8_t s2 = gf16::mul(flip, gf16::pow_alpha(2 * e));
          for (std::size_t t = 0; t < 4; ++t) {
            if ((s1 >> t) & 1u) {
              c->syndrome_sites[t].push_back(site);
            }
            if ((s2 >> t) & 1u) {
              c->syndrome_sites[4 + t].push_back(site);
            }
          }
        }
        c->rs_locate.push_back(gf_const_matrix(gf16::pow_alpha(e)));
        c->rs_magnitude.push_back(gf_const_matrix(gf16::pow_alpha(-e)));
      }
      break;
    }
    case LutCoding::kNone:
      break;
  }
  return c;
}

/// A LUT with `sites` fault sites and truth table `tt`, without code
/// tables: its address width and golden leaves.
WideLut wide_leaves(const BitVec& tt, std::size_t sites) {
  WideLut t;
  t.inputs = static_cast<std::size_t>(std::countr_zero(tt.size()));
  t.sites = sites;
  t.golden.resize(tt.size());
  for (std::size_t s = 0; s < tt.size(); ++s) {
    t.golden[s] = lane_broadcast(tt.get(s));
  }
  return t;
}

/// The wide view of `lut`, its code tables shared through `codes`.
WideLut wide_lut(const CodedLut& lut, CodeTables& codes) {
  WideLut t = wide_leaves(lut.golden_table(), lut.fault_sites());
  t.coding = lut.coding();
  const std::size_t n = lut.table_bits();
  const auto shared =
      std::find_if(codes.begin(), codes.end(), [&](const auto& c) {
        return c->coding == t.coding && c->table_bits == n;
      });
  t.code = shared != codes.end()
               ? shared->get()
               : codes.emplace_back(build_code(t.coding, n)).get();
  return t;
}

/// The wide view of a gate-level `lut`: its golden leaves alone.
WideLut wide_lut(const HwTmrLut& lut, CodeTables& /*codes*/) {
  return wide_leaves(lut.golden_table(), lut.fault_sites());
}

/// The wide view of a LutCoreAlu's, HwLutCoreAlu's or LutVoter's block.
template <class Lut>
void mirror_luts(const LutBlock<Lut>& block, CodeTables& codes,
                 WideLutBlock& out) {
  out.reserve(block.size());
  for (const Lut& lut : block.luts()) {
    out.emplace_back(wide_lut(lut, codes));
  }
}

/// Fills `out` from a recognized core; false on anything else.
bool mirror_core(const CoreAlu& core, CodeTables& codes,
                 WideMirror::Core& out) {
  out.sites = core.fault_sites();
  if (const auto* lut = dynamic_cast<const LutCoreAlu*>(&core)) {
    out.kind = WideMirror::PartKind::kLut;
    mirror_luts(lut->block(), codes, out.block);
    return true;
  }
  if (const auto* hw = dynamic_cast<const HwLutCoreAlu*>(&core)) {
    // A HwTmrLut's truth table enters its read path only through the
    // storage inputs, so one netlist serves all 32.
    out.kind = WideMirror::PartKind::kHwLut;
    out.netlist = &hw->block().lut(0).netlist();
    out.lut_out = hw->block().lut(0).output();
    mirror_luts(hw->block(), codes, out.block);
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

bool mirror_voter(const IVoter& voter, CodeTables& codes,
                  WideMirror::Voter& out) {
  out.sites = voter.fault_sites();
  if (const auto* lut = dynamic_cast<const LutVoter*>(&voter)) {
    out.kind = WideMirror::PartKind::kLut;
    mirror_luts(lut->block(), codes, out.block);
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
  std::vector<const CoreAlu*> cores;
  const IVoter* voter = nullptr;
  if (const auto* single = dynamic_cast<const SingleAlu*>(&alu)) {
    m->level_ = Level::kSingle;
    cores = {&single->core()};
  } else if (const auto* space =
                 dynamic_cast<const SpaceRedundantAlu*>(&alu)) {
    m->level_ = Level::kSpace;
    cores = {&space->core(0), &space->core(1), &space->core(2)};
    voter = &space->voter();
  } else if (const auto* time = dynamic_cast<const TimeRedundantAlu*>(&alu)) {
    m->level_ = Level::kTime;
    cores = {&time->core()};
    voter = &time->voter();
  }
  m->cores_.resize(cores.size());
  bool ok = !cores.empty();
  for (std::size_t i = 0; i < cores.size(); ++i) {
    ok = ok && mirror_core(*cores[i], m->codes_, m->cores_[i]);
  }
  if (!ok ||
      (voter != nullptr && !mirror_voter(*voter, m->codes_, m->voter_))) {
    throw std::invalid_argument("WideMirror: no word-parallel mirror of '" +
                                std::string(alu.name()) + "'");
  }
  for (const Core& c : m->cores_) {
    if (c.netlist != nullptr) {
      m->max_nodes_ = std::max(m->max_nodes_, c.netlist->node_count());
    }
  }
  if (voter != nullptr && m->voter_.netlist != nullptr) {
    m->max_nodes_ = std::max(m->max_nodes_, m->voter_.netlist->node_count());
  }
  return m;
}

}  // namespace nbx::simd
