// Scalar Talon SpMV reference. Walks panels, blocks and mask bits in the
// same (block, row, ascending-column) order as the packed value stream, so
// it doubles as the differential oracle for the vector tiers.

#include <bit>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=talon isa=scalar

namespace kestrel::mat::kernels {

namespace {

/// One body for every entry point: V is the stored value type (double, or
/// the fp32 stream widened to double on load); Add accumulates into y.
template <bool Add, class V>
void talon_spmv_scalar_impl(const TalonView& a, const V* val, const Scalar* x,
                            Scalar* y) {
  for (Index p = 0; p < a.npanels; ++p) {
    const Index row0 = a.panel_row[p];
    const Index r = a.panel_row[p + 1] - row0;
    const V* v = val + a.panel_valptr[p];
    Scalar acc[4] = {};  // r <= 4 by construction
    for (Index b = a.panel_blockptr[p]; b < a.panel_blockptr[p + 1]; ++b) {
      const Index c0 = a.block_col[b];
      const std::uint32_t mask = a.block_mask[b];
      for (Index j = 0; j < r; ++j) {
        std::uint32_t bits = (mask >> (8u * static_cast<unsigned>(j))) & 0xFFu;
        while (bits != 0) {
          acc[j] += *v++ * x[c0 + std::countr_zero(bits)];
          bits &= bits - 1;
        }
      }
    }
    for (Index j = 0; j < r; ++j) {
      if constexpr (Add) {
        y[row0 + j] += acc[j];
      } else {
        y[row0 + j] = acc[j];
      }
    }
  }
}

// argus-kernel: talon_spmv_scalar
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_scalar(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_scalar_impl<false, Scalar>(a, a.val, x, y);
}
// argus-kernel: talon_spmv_fp32_scalar
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon_fp32
void talon_spmv_fp32_scalar(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_scalar_impl<false, float>(a, a.val32, x, y);
}
// argus-kernel: talon_spmv_add_scalar
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_add_scalar(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_scalar_impl<true, Scalar>(a, a.val, x, y);
}

}  // namespace

void register_talon_scalar() {
  KESTREL_REGISTER_KERNEL(kTalonSpmv, kScalar, talon_spmv_scalar);
  KESTREL_REGISTER_KERNEL(kTalonSpmvFp32, kScalar, talon_spmv_fp32_scalar);
  KESTREL_REGISTER_KERNEL(kTalonSpmvAdd, kScalar, talon_spmv_add_scalar);
}

}  // namespace kestrel::mat::kernels
