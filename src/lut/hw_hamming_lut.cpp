#include "lut/hw_hamming_lut.hpp"

#include <array>
#include <cassert>
#include <string>
#include <vector>

namespace nbx {

HwHammingLut::HwHammingLut(BitVec tt) : tt_(std::move(tt)) {
  assert(tt_.size() == 16);
  checks_ = code_.generate_check_bits(tt_);

  // Inputs 0..3: address; 4..19: stored data bits; 20..24: stored checks.
  std::array<Signal, 4> a;
  for (int i = 0; i < 4; ++i) {
    a[i] = net_.add_input("a" + std::to_string(i));
  }
  std::array<Signal, 16> data;
  for (int i = 0; i < 16; ++i) {
    data[static_cast<std::size_t>(i)] =
        net_.add_input("d" + std::to_string(i));
  }
  std::array<Signal, 5> stored_check;
  for (int i = 0; i < 5; ++i) {
    stored_check[static_cast<std::size_t>(i)] =
        net_.add_input("c" + std::to_string(i));
  }

  // Address decode.
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

  // Data output mux (the raw, possibly faulty addressed bit).
  std::vector<Signal> mux_terms;
  for (int m = 0; m < 16; ++m) {
    mux_terms.push_back(net_.and2(minterm[static_cast<std::size_t>(m)],
                                  data[static_cast<std::size_t>(m)],
                                  "md" + std::to_string(m)));
  }
  const Signal raw_out = net_.add_gate(GateOp::kOrN, mux_terms, "raw");

  // Check-bit generator: recompute check i as the XOR of the data bits
  // whose codeword position has bit i set (one wide XOR gate per group —
  // a balanced XOR tree in silicon, one fault site here as with the
  // voter's wide OR).
  std::array<Signal, 5> recomputed;
  for (int i = 0; i < 5; ++i) {
    std::vector<Signal> members;
    for (int d = 0; d < 16; ++d) {
      if (code_.position_of_data(static_cast<std::size_t>(d)) &
          (1u << i)) {
        members.push_back(data[static_cast<std::size_t>(d)]);
      }
    }
    recomputed[static_cast<std::size_t>(i)] =
        net_.add_gate(GateOp::kXorN, members, "gen" + std::to_string(i));
  }

  // Error detector: syndrome = recomputed XOR stored.
  std::array<Signal, 5> syndrome;
  for (int i = 0; i < 5; ++i) {
    syndrome[static_cast<std::size_t>(i)] =
        net_.xor2(recomputed[static_cast<std::size_t>(i)],
                  stored_check[static_cast<std::size_t>(i)],
                  "syn" + std::to_string(i));
  }

  // Error corrector. The addressed data bit's codeword position, bit by
  // bit, as an OR over the minterms whose position has that bit set.
  std::array<Signal, 5> pos;
  for (int i = 0; i < 5; ++i) {
    std::vector<Signal> members;
    for (int d = 0; d < 16; ++d) {
      if (code_.position_of_data(static_cast<std::size_t>(d)) &
          (1u << i)) {
        members.push_back(minterm[static_cast<std::size_t>(d)]);
      }
    }
    pos[static_cast<std::size_t>(i)] = members.size() == 1
        ? net_.buf(members[0], "pos" + std::to_string(i))
        : net_.add_gate(GateOp::kOrN, members, "pos" + std::to_string(i));
  }
  // match = AND over XNOR(syndrome_i, pos_i).
  std::vector<Signal> eq;
  for (int i = 0; i < 5; ++i) {
    const Signal x = net_.xor2(syndrome[static_cast<std::size_t>(i)],
                               pos[static_cast<std::size_t>(i)],
                               "neq" + std::to_string(i));
    eq.push_back(net_.not1(x, "eq" + std::to_string(i)));
  }
  const Signal match = net_.add_gate(GateOp::kAndN, eq, "match");
  // Corrected output: flip the raw addressed bit when the syndrome
  // points exactly at it.
  out_ = net_.xor2(raw_out, match, "out");
}

bool HwHammingLut::read(std::uint32_t addr, MaskView mask) const {
  assert(addr < 16);
  assert(mask.is_null() || mask.size() == fault_sites());
  std::uint64_t inputs = addr & 0xF;
  for (std::size_t i = 0; i < 16; ++i) {
    const bool stored = tt_.get(i) ^ mask.get(i);
    if (stored) {
      inputs |= std::uint64_t{1} << (4 + i);
    }
  }
  for (std::size_t i = 0; i < 5; ++i) {
    const bool stored = checks_.get(i) ^ mask.get(16 + i);
    if (stored) {
      inputs |= std::uint64_t{1} << (20 + i);
    }
  }
  const auto nodes = net_.evaluate(inputs, mask.subview(21, logic_sites()));
  return net_.value_of(out_, inputs, nodes);
}

}  // namespace nbx
