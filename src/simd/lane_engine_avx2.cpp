// AVX2 instantiation of the lane engine. This TU (and only this TU) is
// compiled with -mavx2; the tier namespace keeps its instantiations from
// ever being ODR-merged with another tier's. Only built when the
// toolchain accepts the flags (NBX_HAVE_AVX2); dispatch additionally
// checks CPUID at runtime.
#define NBX_SIMD_NS tier_avx2
#include "simd/lane_engine_inl.hpp"

namespace nbx::simd {

const LaneKernels& avx2_kernels() {
  static const LaneKernels k = {
      {
          &tier_avx2::run_group_impl<1>,
          &tier_avx2::run_group_impl<2>,
          &tier_avx2::run_group_impl<4>,
          &tier_avx2::run_group_impl<8>,
      },
      &tier_avx2::lockstep_masks,
  };
  return k;
}

}  // namespace nbx::simd
