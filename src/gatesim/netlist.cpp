#include "gatesim/netlist.hpp"

#include <cassert>
#include <utility>

namespace nbx {

Signal Netlist::add_input(std::string name) {
  inputs_.push_back(std::move(name));
  return Signal::input(static_cast<std::uint32_t>(inputs_.size() - 1));
}

void Netlist::check_signal(Signal s) const {
  switch (s.kind()) {
    case Signal::Kind::kInput:
      assert(s.index() < inputs_.size());
      break;
    case Signal::Kind::kNode:
      assert(s.index() < gates_.size());
      break;
    case Signal::Kind::kConstZero:
    case Signal::Kind::kConstOne:
      break;
  }
  (void)s;
}

Signal Netlist::add_gate(GateOp op, std::vector<Signal> fanin,
                         std::string name) {
  if (op == GateOp::kBuf || op == GateOp::kNot) {
    assert(fanin.size() == 1);
  } else {
    assert(fanin.size() >= 2);
  }
  for (const Signal s : fanin) {
    check_signal(s);
  }
  gates_.push_back(Gate{op, std::move(fanin), std::move(name)});
  return Signal::node(static_cast<std::uint32_t>(gates_.size() - 1));
}

Signal Netlist::and2(Signal a, Signal b, std::string name) {
  return add_gate(GateOp::kAndN, {a, b}, std::move(name));
}
Signal Netlist::or2(Signal a, Signal b, std::string name) {
  return add_gate(GateOp::kOrN, {a, b}, std::move(name));
}
Signal Netlist::xor2(Signal a, Signal b, std::string name) {
  return add_gate(GateOp::kXorN, {a, b}, std::move(name));
}
Signal Netlist::not1(Signal a, std::string name) {
  return add_gate(GateOp::kNot, {a}, std::move(name));
}
Signal Netlist::buf(Signal a, std::string name) {
  return add_gate(GateOp::kBuf, {a}, std::move(name));
}

std::vector<std::uint8_t> Netlist::evaluate(std::uint64_t input_values,
                                            MaskView mask) const {
  assert(mask.is_null() || mask.size() == gates_.size());
  std::vector<std::uint8_t> nodes(gates_.size(), 0);
  auto read = [&](Signal s) -> bool {
    switch (s.kind()) {
      case Signal::Kind::kInput:
        return (input_values >> s.index()) & 1u;
      case Signal::Kind::kNode:
        return nodes[s.index()] != 0;
      case Signal::Kind::kConstZero:
        return false;
      case Signal::Kind::kConstOne:
        return true;
    }
    return false;
  };
  for (std::size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    bool v = false;
    switch (g.op) {
      case GateOp::kBuf:
        v = read(g.fanin[0]);
        break;
      case GateOp::kNot:
        v = !read(g.fanin[0]);
        break;
      case GateOp::kAndN:
        v = true;
        for (const Signal s : g.fanin) {
          v = v && read(s);
        }
        break;
      case GateOp::kOrN:
        v = false;
        for (const Signal s : g.fanin) {
          v = v || read(s);
        }
        break;
      case GateOp::kXorN:
        v = false;
        for (const Signal s : g.fanin) {
          v = v != read(s);
        }
        break;
    }
    // The transient fault model: a faulted node inverts its state.
    nodes[i] = static_cast<std::uint8_t>(v ^ mask.get(i));
  }
  return nodes;
}

bool Netlist::value_of(Signal s, std::uint64_t input_values,
                       const std::vector<std::uint8_t>& nodes) const {
  switch (s.kind()) {
    case Signal::Kind::kInput:
      return (input_values >> s.index()) & 1u;
    case Signal::Kind::kNode:
      assert(s.index() < nodes.size());
      return nodes[s.index()] != 0;
    case Signal::Kind::kConstZero:
      return false;
    case Signal::Kind::kConstOne:
      return true;
  }
  return false;
}

Netlist::GateCounts Netlist::gate_counts() const {
  GateCounts c;
  for (const Gate& g : gates_) {
    switch (g.op) {
      case GateOp::kBuf:
        ++c.buf;
        break;
      case GateOp::kNot:
        ++c.nots;
        break;
      case GateOp::kAndN:
        ++c.ands;
        break;
      case GateOp::kOrN:
        ++c.ors;
        break;
      case GateOp::kXorN:
        ++c.xors;
        break;
    }
  }
  return c;
}

namespace {
const char* op_name(GateOp op) {
  switch (op) {
    case GateOp::kBuf:
      return "BUF";
    case GateOp::kNot:
      return "NOT";
    case GateOp::kAndN:
      return "AND";
    case GateOp::kOrN:
      return "OR";
    case GateOp::kXorN:
      return "XOR";
  }
  return "?";
}

void print_signal(std::ostream& os, const Signal& s) {
  switch (s.kind()) {
    case Signal::Kind::kInput:
      os << "i" << s.index();
      break;
    case Signal::Kind::kNode:
      os << "n" << s.index();
      break;
    case Signal::Kind::kConstZero:
      os << "0";
      break;
    case Signal::Kind::kConstOne:
      os << "1";
      break;
  }
}
}  // namespace

void Netlist::dump(std::ostream& os) const {
  os << "netlist: " << inputs_.size() << " inputs, " << gates_.size()
     << " nodes\n";
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    os << "i" << i << " : " << inputs_[i] << "\n";
  }
  for (std::size_t n = 0; n < gates_.size(); ++n) {
    const Gate& g = gates_[n];
    os << "n" << n << " = " << op_name(g.op) << "(";
    for (std::size_t f = 0; f < g.fanin.size(); ++f) {
      if (f != 0) {
        os << ", ";
      }
      print_signal(os, g.fanin[f]);
    }
    os << ")";
    if (!g.name.empty()) {
      os << "  # " << g.name;
    }
    os << "\n";
  }
}

}  // namespace nbx
