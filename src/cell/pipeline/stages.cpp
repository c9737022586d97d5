#include "cell/pipeline/stages.hpp"

#include <cassert>

#include "fault/remap.hpp"

namespace nbx {

// ---------------------------------------------------------------- decode

void DecodeStage::configure(LutCoding word_coding, double fault_percent) {
  copies_ = word_coding == LutCoding::kTmr ? 3 : 1;
  const std::size_t sites = kControlWordBits * copies_;
  gen_ = MaskGenerator(sites, fault_percent);
  mask_ = BitVec(sites);
}

DecodedOp DecodeStage::run(const FetchedRecord& rec, Rng& rng,
                           std::uint64_t* bit_faults) {
  // Control word: op(3) dst(3) mode(2) src1(3) src2(3), fields derived
  // from the instruction id (see DecodedOp).
  const std::uint16_t id = rec.instr_id;
  std::uint32_t word = 0;
  word |= static_cast<std::uint32_t>(rec.op_bits & 0x7u);
  word |= static_cast<std::uint32_t>(id & 0x7u) << 3;          // dst
  word |= static_cast<std::uint32_t>((id >> 3) & 0x3u) << 6;   // mode
  word |= static_cast<std::uint32_t>((id >> 5) & 0x7u) << 8;   // src1
  word |= static_cast<std::uint32_t>((id >> 8) & 0x7u) << 11;  // src2

  gen_.generate(rng, mask_);
  if (bit_faults != nullptr) {
    *bit_faults += mask_.popcount();
  }
  // Per-bit majority over the faulted copies.
  std::uint32_t voted = 0;
  for (std::size_t bit = 0; bit < kControlWordBits; ++bit) {
    unsigned ones = 0;
    for (std::size_t c = 0; c < copies_; ++c) {
      const bool v = (((word >> bit) & 1u) != 0) ^
                     mask_.get(c * kControlWordBits + bit);
      ones += v ? 1u : 0u;
    }
    if (ones * 2 > copies_) {
      voted |= std::uint32_t{1} << bit;
    }
  }

  DecodedOp op;
  op.instr_id = id;
  op.op_bits = static_cast<std::uint8_t>(voted & 0x7u);
  op.dst = static_cast<std::uint8_t>((voted >> 3) & 0x7u);
  op.mode = static_cast<std::uint8_t>((voted >> 6) & 0x3u);
  op.src1 = static_cast<std::uint8_t>((voted >> 8) & 0x7u);
  op.src2 = static_cast<std::uint8_t>((voted >> 11) & 0x7u);
  op.imm_a = rec.a;
  op.imm_b = rec.b;
  op.flush = !opcode_is_valid(op.op_bits);
  return op;
}

// --------------------------------------------------------------- execute

ExecuteStage::ExecuteStage(LutCoding coding)
    : lut_(std::make_unique<LutCoreAlu>(coding)) {}

ExecuteStage::ExecuteStage(std::unique_ptr<IAlu> alu)
    : ialu_(std::move(alu)) {
  assert(ialu_ != nullptr);
}

std::size_t ExecuteStage::fault_sites() const {
  return lut_ != nullptr ? lut_->fault_sites() : ialu_->fault_sites();
}

std::size_t ExecuteStage::defectable_sites() const {
  return lut_ != nullptr ? lut_->fault_sites() : ialu_->defectable_sites();
}

void ExecuteStage::manufacture(double defect_density,
                               std::size_t spare_sites, bool remap,
                               Rng& rng) {
  golden_bits_ =
      lut_ != nullptr ? lut_->golden_storage() : ialu_->golden_storage();
  // The manufactured fabric is the logical fault-site window plus any
  // spare pool; with neither spares nor remap this is exactly the
  // historical manufacture call (same sites, same rng draws).
  defects_ = DefectMap::manufacture(defectable_sites() + spare_sites,
                                    defect_density, rng);
  manufactured_ = defects_.defect_count();
  if (spare_sites > 0 || remap) {
    RemapPlan plan;
    if (remap) {
      plan = remap_around_defects(defects_, defectable_sites());
      remap_feasible_ = plan.feasible;
      spares_used_ = plan.spares_used;
    } else {
      // Oblivious placement: storage sits on the leading window and the
      // spare pool is dead weight.
      plan.logical_to_physical.resize(defectable_sites());
      for (std::size_t i = 0; i < plan.logical_to_physical.size(); ++i) {
        plan.logical_to_physical[i] = static_cast<std::uint32_t>(i);
      }
    }
    defects_ = remap_logical_defects(defects_, plan);
  }
}

void ExecuteStage::set_fault_percent(double percent) {
  gen_ = MaskGenerator(fault_sites(), percent);
  mask_ = BitVec(fault_sites());
}

std::uint8_t ExecuteStage::pass(Opcode op, std::uint8_t a, std::uint8_t b,
                                Rng& rng,
                                std::uint64_t* tmr_disagreements) {
  assert(lut_ != nullptr);
  // A fresh transient-fault mask per ALU pass (paper §4), with the
  // cell's manufacturing defects overlaid on top (stuck cells dominate).
  gen_.generate(rng, mask_);
  if (defects_.defect_count() != 0) {
    defects_.impose(golden_bits_, mask_);
  }
  return lut_->eval(op, a, b, MaskView(mask_, 0, mask_.size()), nullptr,
                    tmr_disagreements);
}

AluOutput ExecuteStage::run(Opcode op, std::uint8_t a, std::uint8_t b,
                            Rng& rng, std::uint64_t* bit_faults) {
  assert(ialu_ != nullptr);
  gen_.generate(rng, mask_);
  if (defects_.defect_count() != 0) {
    ialu_->impose_defects(defects_, mask_);
  }
  if (bit_faults != nullptr) {
    *bit_faults += mask_.popcount();
  }
  return ialu_->compute(op, a, b, MaskView(mask_, 0, mask_.size()));
}

// ------------------------------------------------------------- writeback

std::uint8_t WritebackStage::run(RegisterFile& regs, std::size_t dst,
                                 std::uint8_t value, Rng& rng,
                                 std::uint64_t* bit_faults) {
  gen_.generate(rng, mask_);
  if (bit_faults != nullptr) {
    *bit_faults += mask_.popcount();
  }
  for (std::size_t copy = 0; copy < 3; ++copy) {
    const auto flips =
        static_cast<std::uint8_t>(mask_.extract(copy * 8, 8));
    regs.write_copy(dst, copy, static_cast<std::uint8_t>(value ^ flips));
  }
  return regs.read(dst);
}

}  // namespace nbx
