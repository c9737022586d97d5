// lut_block.hpp — an ordered run of lookup tables laid back to back in
// one fault-site segment.
//
// Every NanoBox LUT fabric is such a run: an ALU datapath's bit slices
// (paper §2.1, Table 2), the module voter's nine majority LUTs, the
// cell's control LUTs. LUT i's sites (its stored bits, and for a
// gate-level LUT its read-path nodes) start where LUT i-1's end. LutBlock
// owns that layout once: the LUTs, their cumulative offsets, LUT i's
// window of the owner's mask and the concatenated golden storage.
//
// `Lut` needs fault_sites() (CodedLut, HwTmrLut, the wide engine's
// WideLut); golden_storage() also needs stored_bits().
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "common/bitvec.hpp"
#include "fault/mask_view.hpp"

namespace nbx {

template <class Lut>
class LutBlock {
 public:
  void reserve(std::size_t n) {
    luts_.reserve(n);
    offsets_.reserve(n);
  }

  /// Builds a LUT from `args` at the end of the segment.
  template <class... Args>
  void emplace_back(Args&&... args) {
    offsets_.push_back(sites_);
    sites_ += luts_.emplace_back(std::forward<Args>(args)...).fault_sites();
  }

  [[nodiscard]] std::size_t size() const { return luts_.size(); }
  /// Sites of the whole segment.
  [[nodiscard]] std::size_t fault_sites() const { return sites_; }
  [[nodiscard]] const Lut& lut(std::size_t i) const { return luts_[i]; }
  [[nodiscard]] const std::vector<Lut>& luts() const { return luts_; }
  /// LUT i's first site within the segment.
  [[nodiscard]] std::size_t offset(std::size_t i) const {
    return offsets_[i];
  }

  /// LUT i's window of `mask`, a view of the block's segment (null stays
  /// null: fault-free).
  [[nodiscard]] MaskView window(MaskView mask, std::size_t i) const {
    return mask.subview(offsets_[i], luts_[i].fault_sites());
  }

  /// Golden stored bits of every LUT, concatenated in site order.
  [[nodiscard]] BitVec golden_storage() const {
    BitVec bits(sites_);
    for (std::size_t i = 0; i < luts_.size(); ++i) {
      const BitVec stored = luts_[i].stored_bits();
      for (std::size_t b = 0; b < stored.size(); ++b) {
        bits.set(offsets_[i] + b, stored.get(b));
      }
    }
    return bits;
  }

 private:
  std::vector<Lut> luts_;
  std::vector<std::size_t> offsets_;
  std::size_t sites_ = 0;
};

}  // namespace nbx
