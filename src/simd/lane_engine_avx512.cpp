// AVX-512 instantiation of the lane engine: one 512-lane group's site
// row is exactly one zmm register. Compiled with the -mavx512* family
// only in this TU; namespace-isolated like the AVX2 tier; runtime
// dispatch gates on CPUID (F+BW+DQ+VL).
#define NBX_SIMD_NS tier_avx512
#include "simd/lane_engine_inl.hpp"

namespace nbx::simd {

const LaneKernels& avx512_kernels() {
  static const LaneKernels k = {
      {
          &tier_avx512::run_group_impl<1>,
          &tier_avx512::run_group_impl<2>,
          &tier_avx512::run_group_impl<4>,
          &tier_avx512::run_group_impl<8>,
      },
      &tier_avx512::lockstep_masks,
  };
  return k;
}

}  // namespace nbx::simd
