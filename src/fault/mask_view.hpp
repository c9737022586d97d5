// mask_view.hpp — a lightweight window into a fault mask.
//
// One instruction's fault mask covers the whole site space of an ALU
// implementation (all LUT bit strings, all netlist nodes, the voter, any
// storage bits — Table 2's site counts). Sub-units read their own segment
// through a MaskView, so a single BitVec is generated per computation and
// sliced without copying.
#pragma once

#include <cstddef>

#include "common/bitvec.hpp"

namespace nbx {

/// Non-owning view of `length` mask bits starting at `offset` within a
/// BitVec. A default-constructed view acts as an all-zero (fault-free)
/// mask, which lets golden-path code share the faulted code path.
class MaskView {
 public:
  MaskView() = default;

  MaskView(const BitVec& mask, std::size_t offset, std::size_t length)
      : mask_(&mask), offset_(offset), length_(length) {}

  /// Bit `i` of this window; false when the view is null (fault-free).
  [[nodiscard]] bool get(std::size_t i) const {
    return mask_ != nullptr && mask_->get(offset_ + i);
  }

  [[nodiscard]] std::size_t size() const { return length_; }
  [[nodiscard]] bool is_null() const { return mask_ == nullptr; }

  /// Sub-window, relative to this view. Requires off+len <= size() for
  /// non-null views; sub-views of a null view are null.
  [[nodiscard]] MaskView subview(std::size_t off, std::size_t len) const {
    if (mask_ == nullptr) {
      return {};
    }
    return {*mask_, offset_ + off, len};
  }

  /// True if any bit of the window is set (false for null views).
  [[nodiscard]] bool any() const {
    return mask_ != nullptr && mask_->any_in(offset_, length_);
  }

  /// Number of set bits in the window (0 for null views).
  [[nodiscard]] std::size_t popcount() const {
    if (mask_ == nullptr) {
      return 0;
    }
    std::size_t n = 0;
    for (std::size_t i = 0; i < length_; ++i) {
      n += get(i) ? 1u : 0u;
    }
    return n;
  }

 private:
  const BitVec* mask_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t length_ = 0;
};

}  // namespace nbx
