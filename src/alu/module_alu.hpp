// module_alu.hpp — module-level fault tolerance wrappers (paper §2.2).
//
// "Each instruction is executed multiple times, either concurrently using
// multiple ALUs, or serially using a time-redundant ALU. The repeated
// results are fed into a voter circuit which determines the final result."
//
// Fault-site layout (matches the Table 2 arithmetic, DESIGN.md §2):
//   SingleAlu          [core]
//   SpaceRedundantAlu  [core0 | core1 | core2 | voter]
//   TimeRedundantAlu   [pass0 | pass1 | pass2 | voter | 27 storage bits]
//
// For time redundancy the paper also models "bit flips in the stored
// inter-operation ALU results": each of the three stored results occupies
// 9 storage bits (8 data + 1 valid), 27 sites total — the constant +27 in
// every alut* row of Table 2.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "alu/alu_iface.hpp"
#include "alu/voter.hpp"

namespace nbx {

/// Module level of a Table-2 ALU (middle letter of the name).
enum class ModuleLevel : std::uint8_t {
  kNone,   ///< "n": single pass, no voter
  kTime,   ///< "t": one core evaluated three times + voter + stored results
  kSpace,  ///< "s": three cores evaluated concurrently + voter
};

/// Storage bits modelled for time redundancy: 3 results x (8 data + 1
/// valid flag).
inline constexpr std::size_t kTimeRedundancyStorageBits = 27;

/// An ALU with no module-level redundancy (alun*).
class SingleAlu : public IAlu {
 public:
  SingleAlu(std::string name, std::unique_ptr<CoreAlu> core);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t fault_sites() const override;
  [[nodiscard]] AluOutput compute(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;
  [[nodiscard]] std::size_t defectable_sites() const override;
  [[nodiscard]] BitVec golden_storage() const override;
  void impose_defects(const DefectMap& defects,
                      BitVec& mask) const override;

  /// The wrapped core, for the batched engine's mirror.
  [[nodiscard]] const CoreAlu& core() const { return *core_; }

 private:
  std::string name_;
  std::unique_ptr<CoreAlu> core_;
};

/// Three concurrent core copies + voter (alus*).
class SpaceRedundantAlu : public IAlu {
 public:
  /// `cores` must contain exactly three structurally identical cores.
  SpaceRedundantAlu(std::string name,
                    std::vector<std::unique_ptr<CoreAlu>> cores,
                    std::unique_ptr<IVoter> voter);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t fault_sites() const override;
  [[nodiscard]] AluOutput compute(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;
  /// Three physically separate replicas: each replica's storage is
  /// independently defectable — defect space [core0|core1|core2|voter].
  [[nodiscard]] std::size_t defectable_sites() const override;
  [[nodiscard]] BitVec golden_storage() const override;
  void impose_defects(const DefectMap& defects,
                      BitVec& mask) const override;

  /// Replica cores and voter, for the batched engine's mirror.
  [[nodiscard]] const CoreAlu& core(std::size_t i) const {
    return *cores_[i];
  }
  [[nodiscard]] const IVoter& voter() const { return *voter_; }

 private:
  std::string name_;
  std::vector<std::unique_ptr<CoreAlu>> cores_;
  std::unique_ptr<IVoter> voter_;
};

/// One core evaluated serially three times, results stored then voted
/// (alut*). Each pass sees its own fresh mask segment — transient faults
/// strike independently per execution, which is why the paper counts the
/// same number of datapath sites as for three spatial copies.
class TimeRedundantAlu : public IAlu {
 public:
  TimeRedundantAlu(std::string name, std::unique_ptr<CoreAlu> core,
                   std::unique_ptr<IVoter> voter);

  [[nodiscard]] std::string_view name() const override { return name_; }
  [[nodiscard]] std::size_t fault_sites() const override;
  [[nodiscard]] AluOutput compute(Opcode op, std::uint8_t a, std::uint8_t b,
                                  MaskView mask,
                                  obs::Counters* sink) const override;
  /// ONE physical datapath executes all three passes, so its storage
  /// appears once in the defect space [core|voter] but its defects are
  /// replicated into all three transient pass segments: manufacturing
  /// defects defeat time redundancy in a way transient faults do not.
  [[nodiscard]] std::size_t defectable_sites() const override;
  [[nodiscard]] BitVec golden_storage() const override;
  void impose_defects(const DefectMap& defects,
                      BitVec& mask) const override;

  /// The (single) core and voter, for the batched engine's mirror.
  [[nodiscard]] const CoreAlu& core() const { return *core_; }
  [[nodiscard]] const IVoter& voter() const { return *voter_; }

 private:
  std::string name_;
  std::unique_ptr<CoreAlu> core_;
  std::unique_ptr<IVoter> voter_;
};

}  // namespace nbx
