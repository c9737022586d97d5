#include "alu/module_alu.hpp"

#include <cassert>
#include <utility>

#include "alu/module_plan.hpp"
#include "fault/defect_map.hpp"

namespace nbx {

namespace {

// Copies `bits` into `dst` starting at dst bit `offset`.
void splice_bits(const BitVec& bits, BitVec& dst, std::size_t offset) {
  for (std::size_t i = 0; i < bits.size(); ++i) {
    dst.set(offset + i, bits.get(i));
  }
}

// Applies `defects` (whose space starts at `defect_offset` and covers
// `golden.size()` cells) onto the mask segment starting at mask_offset.
void impose_segment(const DefectMap& defects, std::size_t defect_offset,
                    const BitVec& golden, BitVec& mask,
                    std::size_t mask_offset) {
  for (std::size_t i = 0; i < golden.size(); ++i) {
    const auto flip = defects.forced_flip(defect_offset + i, golden.get(i));
    if (flip.has_value()) {
      mask.set(mask_offset + i, *flip);
    }
  }
}

}  // namespace

SingleAlu::SingleAlu(std::string name, std::unique_ptr<CoreAlu> core)
    : name_(std::move(name)), core_(std::move(core)) {}

std::size_t SingleAlu::fault_sites() const { return core_->fault_sites(); }

AluOutput SingleAlu::compute(Opcode op, std::uint8_t a, std::uint8_t b,
                             MaskView mask, obs::Counters* sink) const {
  const CoreAlu* cores[1] = {core_.get()};
  plan::ScalarModuleExec ex{op, a, b, mask, sink, cores, nullptr, {}};
  plan::compute_single(ex);
  return ex.out;
}

std::size_t SingleAlu::defectable_sites() const {
  return core_->golden_storage().size();
}

BitVec SingleAlu::golden_storage() const { return core_->golden_storage(); }

void SingleAlu::impose_defects(const DefectMap& defects,
                               BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  impose_segment(defects, 0, core_->golden_storage(), mask, 0);
}

SpaceRedundantAlu::SpaceRedundantAlu(
    std::string name, std::vector<std::unique_ptr<CoreAlu>> cores,
    std::unique_ptr<IVoter> voter)
    : name_(std::move(name)), cores_(std::move(cores)),
      voter_(std::move(voter)) {
  assert(cores_.size() == 3);
  assert(cores_[0]->fault_sites() == cores_[1]->fault_sites() &&
         cores_[1]->fault_sites() == cores_[2]->fault_sites());
}

std::size_t SpaceRedundantAlu::fault_sites() const {
  return 3 * cores_[0]->fault_sites() + voter_->fault_sites();
}

AluOutput SpaceRedundantAlu::compute(Opcode op, std::uint8_t a,
                                     std::uint8_t b, MaskView mask,
                                     obs::Counters* sink) const {
  const CoreAlu* cores[3] = {cores_[0].get(), cores_[1].get(),
                             cores_[2].get()};
  plan::ScalarModuleExec ex{op, a, b, mask, sink, cores, voter_.get(), {}};
  plan::compute_space(ex);
  return ex.out;
}

std::size_t SpaceRedundantAlu::defectable_sites() const {
  return 3 * cores_[0]->golden_storage().size() +
         voter_->golden_storage().size();
}

BitVec SpaceRedundantAlu::golden_storage() const {
  BitVec bits(defectable_sites());
  const std::size_t core_bits = cores_[0]->golden_storage().size();
  for (std::size_t i = 0; i < 3; ++i) {
    splice_bits(cores_[i]->golden_storage(), bits, i * core_bits);
  }
  splice_bits(voter_->golden_storage(), bits, 3 * core_bits);
  return bits;
}

void SpaceRedundantAlu::impose_defects(const DefectMap& defects,
                                       BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  const std::size_t storage = cores_[0]->golden_storage().size();
  const std::size_t sites = cores_[0]->fault_sites();
  // LUT cores: storage == sites, so defect space and mask space align
  // replica by replica. (CMOS cores have no storage; both are 0.)
  assert(storage == sites || storage == 0);
  for (std::size_t i = 0; i < 3; ++i) {
    impose_segment(defects, i * storage, cores_[i]->golden_storage(), mask,
                   i * sites);
  }
  impose_segment(defects, 3 * storage, voter_->golden_storage(), mask,
                 3 * sites);
}

TimeRedundantAlu::TimeRedundantAlu(std::string name,
                                   std::unique_ptr<CoreAlu> core,
                                   std::unique_ptr<IVoter> voter)
    : name_(std::move(name)), core_(std::move(core)),
      voter_(std::move(voter)) {}

std::size_t TimeRedundantAlu::fault_sites() const {
  return 3 * core_->fault_sites() + voter_->fault_sites() +
         kTimeRedundancyStorageBits;
}

std::size_t TimeRedundantAlu::defectable_sites() const {
  return core_->golden_storage().size() + voter_->golden_storage().size();
}

BitVec TimeRedundantAlu::golden_storage() const {
  BitVec bits(defectable_sites());
  splice_bits(core_->golden_storage(), bits, 0);
  splice_bits(voter_->golden_storage(), bits,
              core_->golden_storage().size());
  return bits;
}

void TimeRedundantAlu::impose_defects(const DefectMap& defects,
                                      BitVec& mask) const {
  assert(defects.sites() == defectable_sites());
  assert(mask.size() == fault_sites());
  const BitVec core_golden = core_->golden_storage();
  const std::size_t storage = core_golden.size();
  const std::size_t sites = core_->fault_sites();
  assert(storage == sites || storage == 0);
  // The SAME physical core runs all three passes: its defects land
  // identically in every pass segment, so the vote cannot outvote them.
  for (std::size_t pass = 0; pass < 3; ++pass) {
    impose_segment(defects, 0, core_golden, mask, pass * sites);
  }
  impose_segment(defects, storage, voter_->golden_storage(), mask,
                 3 * sites);
  // The 27 inter-operation storage bits hold dynamic values; they are
  // transient-fault sites only (not defectable storage in this model).
}

AluOutput TimeRedundantAlu::compute(Opcode op, std::uint8_t a,
                                    std::uint8_t b, MaskView mask,
                                    obs::Counters* sink) const {
  const CoreAlu* cores[1] = {core_.get()};
  plan::ScalarModuleExec ex{op, a, b, mask, sink, cores, voter_.get(), {}};
  plan::compute_time(ex);
  return ex.out;
}

}  // namespace nbx
