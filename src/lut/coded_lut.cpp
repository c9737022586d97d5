#include "lut/coded_lut.hpp"

#include <bit>
#include <cassert>

#include "coding/majority.hpp"
#include "lut/truth_table.hpp"
#include "obs/counters.hpp"

namespace nbx {

namespace {

/// The scalar decoders' working copies of a LUT's stored strings, one
/// pair per thread: a faulted read overlays its mask on them, so reads
/// stop allocating once these have grown to the largest LUT.
thread_local BitVec t_data;
thread_local BitVec t_checks;

}  // namespace

obs::CodeLayerCounters* code_layer_of(obs::Counters* sink, LutCoding coding) {
  if (sink == nullptr) {
    return nullptr;
  }
  switch (coding) {
    case LutCoding::kNone:
      return nullptr;
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
      return &sink->at(obs::CodeLayer::kHamming);
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      return &sink->at(obs::CodeLayer::kTmr);
    case LutCoding::kHsiao:
      return &sink->at(obs::CodeLayer::kHsiao);
    case LutCoding::kReedSolomon:
      return &sink->at(obs::CodeLayer::kRs);
  }
  return nullptr;
}

std::string_view lut_coding_suffix(LutCoding c) {
  switch (c) {
    case LutCoding::kNone:
      return "n";
    case LutCoding::kHamming:
      return "h";
    case LutCoding::kHammingIdeal:
      return "hideal";
    case LutCoding::kTmr:
      return "s";
    case LutCoding::kTmrInterleaved:
      return "si";
    case LutCoding::kHsiao:
      return "hsiao";
    case LutCoding::kReedSolomon:
      return "rs";
  }
  return "?";
}

std::size_t coded_lut_sites(std::size_t table_bits, LutCoding coding) {
  switch (coding) {
    case LutCoding::kNone:
      return table_bits;
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
      return table_bits + HammingCode::check_bits_for(table_bits);
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      return 3 * table_bits;
    case LutCoding::kHsiao:
      return table_bits + HsiaoCode::check_bits_for(table_bits);
    case LutCoding::kReedSolomon:
      return table_bits + 8;  // two GF(16) parity symbols
  }
  return 0;
}

CodedLut::CodedLut(BitVec tt, LutCoding coding)
    : coding_(coding), tt_(std::move(tt)) {
  assert(std::has_single_bit(tt_.size()));
  k_ = std::countr_zero(tt_.size());
  assert(k_ >= 1 && k_ <= kMaxLutInputs);
  fault_sites_ = coded_lut_sites(tt_.size(), coding_);
  switch (coding_) {
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
      hamming_ = std::make_unique<HammingCode>(tt_.size());
      checks_ = hamming_->generate_check_bits(tt_);
      break;
    case LutCoding::kHsiao:
      hsiao_ = std::make_unique<HsiaoCode>(tt_.size());
      checks_ = hsiao_->generate_check_bits(tt_);
      break;
    case LutCoding::kReedSolomon:
      rs_ = std::make_unique<Rs16Code>(tt_.size());
      checks_ = rs_->generate_check_bits(tt_);
      break;
    case LutCoding::kNone:
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      break;
  }
}

BitVec CodedLut::stored_bits() const {
  BitVec bits(fault_sites_);
  const std::size_t n = tt_.size();
  switch (coding_) {
    case LutCoding::kNone:
      for (std::size_t i = 0; i < n; ++i) {
        bits.set(i, tt_.get(i));
      }
      break;
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      for (std::size_t copy = 0; copy < 3; ++copy) {
        for (std::size_t i = 0; i < n; ++i) {
          bits.set(tmr_site(copy, i), tt_.get(i));
        }
      }
      break;
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
    case LutCoding::kHsiao:
    case LutCoding::kReedSolomon:
      for (std::size_t i = 0; i < n; ++i) {
        bits.set(i, tt_.get(i));
      }
      for (std::size_t i = 0; i < checks_.size(); ++i) {
        bits.set(n + i, checks_.get(i));
      }
      break;
  }
  return bits;
}

bool CodedLut::read(std::uint32_t addr, MaskView mask, obs::Counters* sink,
                    std::uint64_t* tmr_disagreements) const {
  assert(addr < tt_.size());
  assert(mask.is_null() || mask.size() == fault_sites_);
  obs::CodeLayerCounters* oc = code_layer_of(sink, coding_);
  switch (coding_) {
    case LutCoding::kNone:
      return read_none(addr, mask);
    case LutCoding::kTmr:
    case LutCoding::kTmrInterleaved:
      return read_tmr(addr, mask, oc, tmr_disagreements);
    case LutCoding::kHamming:
    case LutCoding::kHammingIdeal:
      return read_hamming(addr, mask, oc);
    case LutCoding::kHsiao:
      return read_hsiao(addr, mask, oc);
    case LutCoding::kReedSolomon:
      return read_rs(addr, mask, oc);
  }
  return false;
}

bool CodedLut::read_unfaulted(std::uint32_t addr,
                              obs::CodeLayerCounters* oc) const {
  // An unfaulted codeword has a zero syndrome, which every decoder reads
  // as clean: the stored table, nothing repaired.
  if (oc != nullptr) {
    ++oc->reads;
    ++oc->clean;
  }
  return tt_.get(addr);
}

std::size_t CodedLut::load_faulted(MaskView mask, BitVec& data,
                                   BitVec& checks) const {
  const std::size_t n = tt_.size();
  std::size_t flips = 0;
  data = tt_;
  for (std::size_t i = 0; i < n; ++i) {
    if (mask.get(i)) {
      data.flip(i);
      ++flips;
    }
  }
  checks = checks_;
  for (std::size_t i = 0; i < checks_.size(); ++i) {
    if (mask.get(n + i)) {
      checks.flip(i);
      ++flips;
    }
  }
  return flips;
}

bool CodedLut::read_none(std::uint32_t addr, MaskView mask) const {
  // Only the addressed bit is exposed; faults elsewhere are invisible.
  return tt_.get(addr) ^ mask.get(addr);
}

std::size_t CodedLut::tmr_site(std::size_t copy, std::size_t addr) const {
  // kTmr stores the copies as three separate blocks [copy0|copy1|copy2];
  // kTmrInterleaved puts the three copies of each entry side by side
  // (entry-major), trading uniform-fault equivalence for burst exposure.
  if (coding_ == LutCoding::kTmrInterleaved) {
    return addr * 3 + copy;
  }
  return copy * tt_.size() + addr;
}

bool CodedLut::read_tmr(std::uint32_t addr, MaskView mask,
                        obs::CodeLayerCounters* oc,
                        std::uint64_t* tmr_disagreements) const {
  const bool golden = tt_.get(addr);
  const bool c0 = golden ^ mask.get(tmr_site(0, addr));
  const bool c1 = golden ^ mask.get(tmr_site(1, addr));
  const bool c2 = golden ^ mask.get(tmr_site(2, addr));
  const bool voted = majority3(c0, c1, c2);
  if (tmr_disagreements != nullptr && tmr_disagreement(c0, c1, c2)) {
    ++*tmr_disagreements;
  }
  if (oc != nullptr) {
    ++oc->reads;
    if (c0 == golden && c1 == golden && c2 == golden) {
      ++oc->clean;
    } else if (voted == golden) {
      ++oc->corrected;
    } else {
      ++oc->miscorrected;
    }
  }
  return voted;
}

bool CodedLut::read_hamming(std::uint32_t addr, MaskView mask,
                            obs::CodeLayerCounters* oc) const {
  // Site layout: [table 2^k bits | check bits]. The decoder reads the
  // entire faulted string, exactly as the hardware of Figure 1(b) would.
  if (!mask.any()) {
    return read_unfaulted(addr, oc);
  }
  BitVec& data = t_data;
  BitVec& checks = t_checks;
  // Mask bits that hit this LUT's stored string.
  const std::size_t flips = load_faulted(mask, data, checks);
  if (oc != nullptr) {
    ++oc->reads;
  }
  const HammingCode::Decode d = hamming_->decode(data, checks);
  using Kind = HammingCode::Decode::Kind;
  switch (d.kind) {
    case Kind::kClean:
      // A silent syndrome with damage present is an undetected (aliased)
      // multi-bit fault.
      if (oc != nullptr) {
        ++(flips == 0 ? oc->clean : oc->undetected);
      }
      return data.get(addr);
    case Kind::kDataBit:
      // Unique single-data-bit explanation: repair it (this is a
      // miscorrection when the real fault was multi-bit — a single flip
      // decoding as kDataBit is always that flip, so repair is genuine
      // exactly when flips == 1).
      if (oc != nullptr) {
        ++(flips == 1 ? oc->corrected : oc->miscorrected);
      }
      data.flip(static_cast<std::size_t>(d.data_index));
      return data.get(addr);
    case Kind::kCheckBit:
    case Kind::kInvalid:
      break;
  }
  // The syndrome does not identify a data bit the corrector can repair.
  if (coding_ == LutCoding::kHammingIdeal) {
    // Textbook SEC decoder: a check-bit syndrome means the data is
    // intact; an invalid syndrome is detected-uncorrectable. Either way
    // the addressed bit is passed through untouched.
    if (oc != nullptr) {
      ++oc->detected_uncorrectable;
    }
    return data.get(addr);
  }
  // The paper's corrector as evaluated (§5): the shared decode cannot
  // localize the error, and it toggles the function output whenever a
  // failing check group covers the addressed position — a false positive
  // triggered by errors in bits (the check bits) which are never
  // addressed by the lookup table inputs.
  const std::uint32_t addr_pos =
      hamming_->position_of_data(static_cast<std::size_t>(addr));
  const bool false_positive = (d.syndrome & addr_pos) != 0;
  if (oc != nullptr) {
    ++(false_positive ? oc->false_positive : oc->detected_uncorrectable);
  }
  return data.get(addr) ^ false_positive;
}

bool CodedLut::read_hsiao(std::uint32_t addr, MaskView mask,
                          obs::CodeLayerCounters* oc) const {
  if (!mask.any()) {
    return read_unfaulted(addr, oc);
  }
  BitVec& data = t_data;
  BitVec& checks = t_checks;
  const std::size_t flips = load_faulted(mask, data, checks);
  const HsiaoStatus st = hsiao_->detect_and_correct(data, checks);
  if (oc != nullptr) {
    ++oc->reads;
    switch (st) {
      case HsiaoStatus::kNoError:
        ++(flips == 0 ? oc->clean : oc->undetected);
        break;
      case HsiaoStatus::kCorrected:
        // Odd-weight-column property: a kCorrected verdict with a
        // single real flip is always that flip (genuine); with 3+
        // flips it is an aliased miscorrection.
        ++(flips == 1 ? oc->corrected : oc->miscorrected);
        break;
      case HsiaoStatus::kDoubleDetected:
      case HsiaoStatus::kUncorrectable:
        ++oc->detected_uncorrectable;
        break;
    }
  }
  return data.get(addr);
}

bool CodedLut::read_rs(std::uint32_t addr, MaskView mask,
                       obs::CodeLayerCounters* oc) const {
  if (!mask.any()) {
    return read_unfaulted(addr, oc);
  }
  BitVec& data = t_data;
  BitVec& checks = t_checks;
  const std::size_t flips = load_faulted(mask, data, checks);
  const RsStatus st = rs_->detect_and_correct(data, checks);
  if (oc != nullptr) {
    ++oc->reads;
    switch (st) {
      case RsStatus::kNoError:
        ++(flips == 0 ? oc->clean : oc->undetected);
        break;
      case RsStatus::kCorrected:
        // RS can genuinely fix several flips inside one symbol, so
        // "genuine" is judged by outcome: did the repaired data match
        // the golden table?
        ++(data == tt_ ? oc->corrected : oc->miscorrected);
        break;
      case RsStatus::kUncorrectable:
        ++oc->detected_uncorrectable;
        break;
    }
  }
  return data.get(addr);
}

}  // namespace nbx
