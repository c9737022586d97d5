#include "alu/cmos_core_alu.hpp"

namespace nbx {

CmosCoreAlu::CmosCoreAlu() {
  // Inputs: a0..a7 (input bits 0..7), b0..b7 (8..15), op0..op2 (16..18).
  std::array<Signal, 8> a;
  std::array<Signal, 8> b;
  for (int i = 0; i < 8; ++i) {
    a[i] = net_.add_input("a" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    b[i] = net_.add_input("b" + std::to_string(i));
  }
  const Signal op0 = net_.add_input("op0");
  const Signal op1 = net_.add_input("op1");
  const Signal op2 = net_.add_input("op2");

  // Eight identical slices; the opcode decoder is replicated per slice
  // (nanoscale wires cannot broadcast decoded selects across the whole
  // datapath), which is what makes 8 x 24 = 192 nodes.
  Signal cin = Signal::zero();
  for (int i = 0; i < 8; ++i) {
    const std::string s = "s" + std::to_string(i) + ".";
    const Signal n_and = net_.and2(a[i], b[i], s + "and");      // 1
    const Signal n_or = net_.or2(a[i], b[i], s + "or");         // 2
    const Signal n_xor = net_.xor2(a[i], b[i], s + "xor");      // 3
    const Signal n_sum = net_.xor2(n_xor, cin, s + "sum");      // 4
    const Signal n_c1 = net_.and2(n_xor, cin, s + "c1");        // 5
    const Signal n_cout = net_.or2(n_and, n_c1, s + "cout");    // 6
    const Signal inv2 = net_.not1(op2, s + "inv2");             // 7
    const Signal inv1 = net_.not1(op1, s + "inv1");             // 8
    const Signal inv0 = net_.not1(op0, s + "inv0");             // 9
    const Signal t1 = net_.and2(inv2, inv1, s + "t1");          // 10
    const Signal sel_and = net_.and2(t1, inv0, s + "sel_and");  // 11
    const Signal sel_or = net_.and2(t1, op0, s + "sel_or");     // 12
    const Signal t3 = net_.and2(inv2, op1, s + "t3");           // 13
    const Signal sel_xor = net_.and2(t3, inv0, s + "sel_xor");  // 14
    const Signal t4 = net_.and2(op2, op1, s + "t4");            // 15
    const Signal sel_add = net_.and2(t4, op0, s + "sel_add");   // 16
    const Signal m_and = net_.and2(sel_and, n_and, s + "m_and");  // 17
    const Signal m_or = net_.and2(sel_or, n_or, s + "m_or");      // 18
    const Signal m_xor = net_.and2(sel_xor, n_xor, s + "m_xor");  // 19
    const Signal m_add = net_.and2(sel_add, n_sum, s + "m_add");  // 20
    const Signal o1 = net_.or2(m_and, m_or, s + "o1");            // 21
    const Signal o2 = net_.or2(m_xor, m_add, s + "o2");           // 22
    result_[i] = net_.or2(o1, o2, s + "res");                     // 23
    cin = net_.and2(sel_add, n_cout, s + "c_gate");               // 24
  }
}

std::size_t CmosCoreAlu::fault_sites() const { return net_.node_count(); }

std::uint8_t CmosCoreAlu::eval(Opcode op, std::uint8_t a, std::uint8_t b,
                               MaskView mask, obs::Counters* sink) const {
  (void)sink;  // the CMOS datapath has no correction telemetry
  const std::uint64_t inputs =
      static_cast<std::uint64_t>(a) | (static_cast<std::uint64_t>(b) << 8) |
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(op)) << 16);
  const std::vector<std::uint8_t> nodes = net_.evaluate(inputs, mask);
  std::uint8_t result = 0;
  for (int i = 0; i < 8; ++i) {
    if (net_.value_of(result_[i], inputs, nodes)) {
      result |= static_cast<std::uint8_t>(1u << i);
    }
  }
  return result;
}

}  // namespace nbx
