#include "alu/voter.hpp"

#include "coding/majority.hpp"
#include "lut/truth_table.hpp"
#include "obs/counters.hpp"

namespace nbx {

namespace {

/// Bitwise 2-of-3 majority of the replica data bytes — the clean answer
/// the voter *should* produce, used to attribute anatomy events.
inline std::uint8_t byte_majority(const VoteInput& in) {
  return static_cast<std::uint8_t>((in.x & in.y) | (in.y & in.z) |
                                   (in.x & in.z));
}

/// Tallies one vote: the replica copies the clean majority outvoted, and
/// a voter self fault when the voted byte (or `valid_escaped`, the valid
/// line) differs from that majority — a fault in the voter's own fabric.
void account_vote(obs::ModuleLayerCounters& m, const VoteInput& in,
                  std::uint8_t voted, bool valid_escaped) {
  ++m.votes;
  const std::uint8_t maj = byte_majority(in);
  m.copies_outvoted += static_cast<std::uint64_t>(in.x != maj) +
                       static_cast<std::uint64_t>(in.y != maj) +
                       static_cast<std::uint64_t>(in.z != maj);
  if (voted != maj || valid_escaped) {
    ++m.voter_self_faults;
  }
}

}  // namespace

LutVoter::LutVoter(LutCoding coding) : coding_(coding) {
  block_.reserve(kLutCount);
  for (std::size_t i = 0; i < kLutCount; ++i) {
    // All nine LUTs hold the 3-input majority function padded to four
    // inputs (input 3 tied to constant zero).
    block_.emplace_back(tt_majority3(4), coding_);
  }
}

VoteOutput LutVoter::vote(const VoteInput& in, MaskView mask,
                          obs::Counters* sink) const {
  VoteOutput out;
  out.disagreement = tmr_disagreement(in.x, in.y, in.z) ||
                     tmr_disagreement(in.vx, in.vy, in.vz);
  for (std::size_t i = 0; i < 8; ++i) {
    const std::uint32_t addr = (((in.x >> i) & 1u) ? 1u : 0u) |
                               (((in.y >> i) & 1u) ? 2u : 0u) |
                               (((in.z >> i) & 1u) ? 4u : 0u);
    if (block_.lut(i).read(addr, block_.window(mask, i), sink)) {
      out.value |= static_cast<std::uint8_t>(1u << i);
    }
  }
  const std::uint32_t vaddr =
      (in.vx ? 1u : 0u) | (in.vy ? 2u : 0u) | (in.vz ? 4u : 0u);
  out.valid = block_.lut(8).read(vaddr, block_.window(mask, 8), sink);
  if (sink != nullptr) {
    account_vote(sink->module_level, in, out.value,
                 out.valid != majority3(in.vx, in.vy, in.vz));
  }
  return out;
}

CmosVoter::CmosVoter() {
  // Inputs: x0..x7 (bits 0..7), y0..y7 (8..15), z0..z7 (16..23).
  std::array<Signal, 8> x;
  std::array<Signal, 8> y;
  std::array<Signal, 8> z;
  for (int i = 0; i < 8; ++i) {
    x[i] = net_.add_input("x" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    y[i] = net_.add_input("y" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    z[i] = net_.add_input("z" + std::to_string(i));
  }
  std::vector<Signal> mismatches;
  mismatches.reserve(8);
  for (int i = 0; i < 8; ++i) {
    const std::string s = "v" + std::to_string(i) + ".";
    const Signal p1 = net_.and2(x[i], y[i], s + "p1");   // 1
    const Signal p2 = net_.and2(y[i], z[i], s + "p2");   // 2
    const Signal p3 = net_.and2(x[i], z[i], s + "p3");   // 3
    const Signal q1 = net_.or2(p1, p2, s + "q1");        // 4
    const Signal maj = net_.or2(q1, p3, s + "maj");      // 5
    const Signal d1 = net_.xor2(x[i], y[i], s + "d1");   // 6
    const Signal d2 = net_.xor2(y[i], z[i], s + "d2");   // 7
    const Signal mm = net_.or2(d1, d2, s + "mm");        // 8
    maj_[i] = net_.buf(maj, s + "bmaj");                 // 9
    mismatches.push_back(net_.buf(mm, s + "bmm"));       // 10
  }
  // One wide OR raises the module error line (a single gate, hence a
  // single fault site, matching the 8x10 + 1 = 81 node budget).
  err_ = net_.add_gate(GateOp::kOrN, mismatches, "err");
}

std::size_t CmosVoter::fault_sites() const { return net_.node_count(); }

VoteOutput CmosVoter::vote(const VoteInput& in, MaskView mask,
                           obs::Counters* sink) const {
  const std::uint64_t inputs = static_cast<std::uint64_t>(in.x) |
                               (static_cast<std::uint64_t>(in.y) << 8) |
                               (static_cast<std::uint64_t>(in.z) << 16);
  const std::vector<std::uint8_t> nodes = net_.evaluate(inputs, mask);
  VoteOutput out;
  for (int i = 0; i < 8; ++i) {
    if (net_.value_of(maj_[i], inputs, nodes)) {
      out.value |= static_cast<std::uint8_t>(1u << i);
    }
  }
  // The CMOS module has no data-valid datapath; the error line reports
  // replica disagreement (possibly itself faulted).
  out.valid = true;
  out.disagreement = net_.value_of(err_, inputs, nodes);
  if (sink != nullptr) {
    // No valid datapath here; a self fault is a wrong data byte.
    account_vote(sink->module_level, in, out.value, false);
  }
  return out;
}

}  // namespace nbx
