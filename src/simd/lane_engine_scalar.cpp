// Scalar (baseline-ISA) instantiation of the lane engine. Compiled with
// the project's default flags only, so it runs on any target — and it is
// the tier the portable multi-word fallback contract is defined against.
#define NBX_SIMD_NS tier_scalar
#include "simd/lane_engine_inl.hpp"

namespace nbx::simd {

const LaneKernels& scalar_kernels() {
  static const LaneKernels k = {
      {
          &tier_scalar::run_group_impl<1>,
          &tier_scalar::run_group_impl<2>,
          &tier_scalar::run_group_impl<4>,
          &tier_scalar::run_group_impl<8>,
      },
      &tier_scalar::lockstep_masks,
  };
  return k;
}

}  // namespace nbx::simd
