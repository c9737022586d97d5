#include "cell/control_logic.hpp"

#include "coding/majority.hpp"
#include "lut/truth_table.hpp"

namespace nbx {

RouteDecision golden_route(CellId self, CellId dest) {
  // Paper §3.3: (1) Send Left if column address > cell ID; (2) Send Right
  // if column address < cell ID; (3) Send Up if row address > cell ID;
  // (4) Send Down if row address < cell ID; (5) Keep Here if equal.
  if (dest.col > self.col) {
    return RouteDecision::kSendLeft;
  }
  if (dest.col < self.col) {
    return RouteDecision::kSendRight;
  }
  if (dest.row > self.row) {
    return RouteDecision::kSendUp;
  }
  if (dest.row < self.row) {
    return RouteDecision::kSendDown;
  }
  return RouteDecision::kKeepHere;
}

namespace {

// Comparator state-update tables. Inputs (s_gt, s_lt, a, b); the scan
// runs MSB -> LSB, so once either flag is set it latches.
BitVec tt_gt_update() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool s_gt = in & 1u;
    const bool s_lt = in & 2u;
    const bool a = in & 4u;
    const bool b = in & 8u;
    return s_gt || (!s_gt && !s_lt && a && !b);
  });
}

BitVec tt_lt_update() {
  return build_truth_table(4, [](std::uint32_t in) {
    const bool s_gt = in & 1u;
    const bool s_lt = in & 2u;
    const bool a = in & 4u;
    const bool b = in & 8u;
    return s_lt || (!s_gt && !s_lt && !a && b);
  });
}

}  // namespace

ControlLogic::ControlLogic(LutCoding coding, double fault_percent,
                           std::uint64_t seed)
    : gen_(0, 0.0), rng_(seed) {
  block_.emplace_back(tt_majority3(4), coding);  // data-valid vote
  block_.emplace_back(tt_majority3(4), coding);  // to-be-computed vote
  block_.emplace_back(tt_gt_update(), coding);   // comparator greater
  block_.emplace_back(tt_lt_update(), coding);   // comparator less
  gen_ = MaskGenerator(block_.fault_sites(), fault_percent);
  mask_ = BitVec(block_.fault_sites());
}

void ControlLogic::fresh_mask() { gen_.generate(rng_, mask_); }

bool ControlLogic::read_lut(std::size_t idx, std::uint32_t addr) {
  const MaskView all(mask_, 0, mask_.size());
  return block_.lut(idx).read(addr, block_.window(all, idx));
}

bool ControlLogic::vote_field(const std::array<bool, 3>& field) {
  fresh_mask();
  const std::uint32_t addr = (field[0] ? 1u : 0u) | (field[1] ? 2u : 0u) |
                             (field[2] ? 4u : 0u);
  return read_lut(0, addr);
}

bool ControlLogic::should_compute(const MemoryWord& w) {
  ++decisions_;
  fresh_mask();
  const std::uint32_t vaddr = (w.data_valid[0] ? 1u : 0u) |
                              (w.data_valid[1] ? 2u : 0u) |
                              (w.data_valid[2] ? 4u : 0u);
  const bool valid = read_lut(0, vaddr);
  const std::uint32_t paddr = (w.to_be_computed[0] ? 1u : 0u) |
                              (w.to_be_computed[1] ? 2u : 0u) |
                              (w.to_be_computed[2] ? 4u : 0u);
  const bool pending = read_lut(1, paddr);
  const bool decision = valid && pending;
  if (decision != (w.valid() && w.pending())) {
    ++corrupted_;
  }
  return decision;
}

std::pair<bool, bool> ControlLogic::compare4(std::uint8_t a,
                                             std::uint8_t b) {
  bool s_gt = false;
  bool s_lt = false;
  for (int bit = 3; bit >= 0; --bit) {
    const bool ab = (a >> bit) & 1u;
    const bool bb = (b >> bit) & 1u;
    const std::uint32_t addr = (s_gt ? 1u : 0u) | (s_lt ? 2u : 0u) |
                               (ab ? 4u : 0u) | (bb ? 8u : 0u);
    const bool new_gt = read_lut(2, addr);
    const bool new_lt = read_lut(3, addr);
    s_gt = new_gt;
    s_lt = new_lt;
  }
  return {s_gt, s_lt};
}

RouteDecision ControlLogic::route(CellId self, CellId dest) {
  ++decisions_;
  fresh_mask();
  const auto [col_gt, col_lt] = compare4(dest.col, self.col);
  const auto [row_gt, row_lt] = compare4(dest.row, self.row);
  RouteDecision d = RouteDecision::kKeepHere;
  if (col_gt) {
    d = RouteDecision::kSendLeft;
  } else if (col_lt) {
    d = RouteDecision::kSendRight;
  } else if (row_gt) {
    d = RouteDecision::kSendUp;
  } else if (row_lt) {
    d = RouteDecision::kSendDown;
  }
  if (d != golden_route(self, dest)) {
    ++corrupted_;
  }
  return d;
}

}  // namespace nbx
