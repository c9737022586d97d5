#include "lut/hw_lut.hpp"

#include <cassert>
#include <string>
#include <vector>

namespace nbx {

HwTmrLut::HwTmrLut(BitVec tt) : tt_(std::move(tt)) {
  assert(tt_.size() == 16);
  // Inputs 0..3: address lines; inputs 4..51: storage cells
  // (copy-major: copy c bit i at input 4 + 16c + i).
  std::array<Signal, 4> a;
  for (int i = 0; i < 4; ++i) {
    a[i] = net_.add_input("a" + std::to_string(i));
  }
  std::array<std::array<Signal, 16>, 3> cell;
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < 16; ++i) {
      cell[static_cast<std::size_t>(c)][static_cast<std::size_t>(i)] =
          net_.add_input("s" + std::to_string(c) + "_" + std::to_string(i));
    }
  }
  // Shared address decode: 4 inverters + 16 minterms.
  std::array<Signal, 4> na;
  for (int i = 0; i < 4; ++i) {
    na[i] = net_.not1(a[i], "na" + std::to_string(i));
  }
  std::array<Signal, 16> minterm;
  for (int m = 0; m < 16; ++m) {
    std::vector<Signal> fanin;
    for (int i = 0; i < 4; ++i) {
      fanin.push_back((m >> i) & 1 ? a[i] : na[i]);
    }
    minterm[static_cast<std::size_t>(m)] =
        net_.add_gate(GateOp::kAndN, fanin, "mt" + std::to_string(m));
  }
  // Per-copy output mux: 16 AND2 + one wide OR.
  std::array<Signal, 3> copy_out;
  for (int c = 0; c < 3; ++c) {
    std::vector<Signal> terms;
    for (int m = 0; m < 16; ++m) {
      terms.push_back(net_.and2(
          minterm[static_cast<std::size_t>(m)],
          cell[static_cast<std::size_t>(c)][static_cast<std::size_t>(m)],
          "m" + std::to_string(c) + "_" + std::to_string(m)));
    }
    copy_out[static_cast<std::size_t>(c)] =
        net_.add_gate(GateOp::kOrN, terms, "out" + std::to_string(c));
  }
  // Majority corrector.
  const Signal p1 = net_.and2(copy_out[0], copy_out[1], "p1");
  const Signal p2 = net_.and2(copy_out[1], copy_out[2], "p2");
  const Signal p3 = net_.and2(copy_out[0], copy_out[2], "p3");
  const Signal q = net_.or2(p1, p2, "q");
  out_ = net_.or2(q, p3, "maj");
}

bool HwTmrLut::read(std::uint32_t addr, MaskView mask) const {
  assert(addr < 16);
  assert(mask.is_null() || mask.size() == fault_sites());
  // Pack inputs: address (4 bits) then the 48 storage cells with their
  // transient flips applied (a flipped cell presents the wrong value to
  // the hardware; the read-path gates may then fault on top).
  std::uint64_t inputs = addr & 0xF;
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 16; ++i) {
      const bool stored = tt_.get(i) ^ mask.get(c * 16 + i);
      if (stored) {
        inputs |= std::uint64_t{1} << (4 + c * 16 + i);
      }
    }
  }
  const auto nodes = net_.evaluate(inputs, mask.subview(48, logic_sites()));
  return net_.value_of(out_, inputs, nodes);
}

HwRecursiveTmrLut::HwRecursiveTmrLut(BitVec tt) {
  replicas_.reserve(3);
  for (int i = 0; i < 3; ++i) {
    replicas_.emplace_back(BitVec(tt));
  }
  replica_sites_ = replicas_[0].fault_sites();
}

bool HwRecursiveTmrLut::read(std::uint32_t addr, MaskView mask) const {
  assert(mask.is_null() || mask.size() == fault_sites());
  bool r[3];
  for (std::size_t i = 0; i < 3; ++i) {
    r[i] = replicas_[i].read(
        addr, mask.subview(i * replica_sites_, replica_sites_));
  }
  // Final gate-level majority: nodes p1, p2, p3, q, out — each output
  // individually faultable (mask bits at the tail of the site space).
  const std::size_t tail = 3 * replica_sites_;
  const bool p1 = (r[0] && r[1]) ^ mask.get(tail + 0);
  const bool p2 = (r[1] && r[2]) ^ mask.get(tail + 1);
  const bool p3 = (r[0] && r[2]) ^ mask.get(tail + 2);
  const bool q = (p1 || p2) ^ mask.get(tail + 3);
  return (q || p3) ^ mask.get(tail + 4);
}

}  // namespace nbx
