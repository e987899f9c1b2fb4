// Scalar SELL SpMV reference. Walks the slice-major storage in the same
// order as the vector kernels (so padded entries are multiplied by zero),
// which makes it a bit-identical oracle for the vector tiers in tests.

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=sell isa=scalar

namespace kestrel::mat::kernels {

namespace {

/// One body for every entry point: V is the stored value type (double, or
/// the fp32 stream widened to double on load); Add accumulates into y.
template <bool Add, class V>
void sell_spmv_scalar_impl(const SellView& a, const V* val, const Scalar* x,
                           Scalar* y) {
  const Index c = a.c;
  for (Index s = 0; s < a.nslices; ++s) {
    const Index row0 = s * c;
    const Index nrows = (row0 + c <= a.m) ? c : (a.m - row0);
    // Accumulate per-lane, walking slice columns exactly like the SIMD
    // kernels do.
    Scalar acc[64] = {};  // c <= 64 enforced at Sell construction
    for (Index k = a.sliceptr[s]; k < a.sliceptr[s + 1]; k += c) {
      for (Index lane = 0; lane < c; ++lane) {
        acc[lane] += val[k + lane] * x[a.colidx[k + lane]];
      }
    }
    for (Index lane = 0; lane < nrows; ++lane) {
      if constexpr (Add) {
        y[row0 + lane] += acc[lane];
      } else {
        y[row0 + lane] = acc[lane];
      }
    }
  }
}

// argus-kernel: sell_spmv_scalar
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: sell
void sell_spmv_scalar(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_scalar_impl<false, Scalar>(a, a.val, x, y);
}
// argus-kernel: sell_spmv_fp32_scalar
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: sell_fp32
void sell_spmv_fp32_scalar(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_scalar_impl<false, float>(a, a.val32, x, y);
}
// argus-kernel: sell_spmv_add_scalar
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: sell
void sell_spmv_add_scalar(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_scalar_impl<true, Scalar>(a, a.val, x, y);
}

/// ESB-style bit-array variant (paper section 5.3 ablation): skip padded
/// lanes via the mask instead of multiplying stored zeros.
// argus-kernel: sell_spmv_bitmask_scalar
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: none
void sell_spmv_bitmask_scalar(const SellView& a, const Scalar* x, Scalar* y) {
  const Index c = a.c;
  for (Index s = 0; s < a.nslices; ++s) {
    const Index row0 = s * c;
    const Index nrows = (row0 + c <= a.m) ? c : (a.m - row0);
    Scalar acc[64] = {};
    for (Index k = a.sliceptr[s]; k < a.sliceptr[s + 1]; k += c) {
      const std::uint64_t mask = a.bitmask[k / c];
      for (Index lane = 0; lane < c; ++lane) {
        if ((mask >> lane) & 1u) {
          acc[lane] += a.val[k + lane] * x[a.colidx[k + lane]];
        }
      }
    }
    for (Index lane = 0; lane < nrows; ++lane) y[row0 + lane] = acc[lane];
  }
}

}  // namespace

void register_sell_scalar() {
  KESTREL_REGISTER_KERNEL(kSellSpmv, kScalar, sell_spmv_scalar);
  KESTREL_REGISTER_KERNEL(kSellSpmvFp32, kScalar, sell_spmv_fp32_scalar);
  KESTREL_REGISTER_KERNEL(kSellSpmvAdd, kScalar, sell_spmv_add_scalar);
  KESTREL_REGISTER_KERNEL(kSellSpmvBitmask, kScalar, sell_spmv_bitmask_scalar);
  // scalar fallback for the prefetch variant is the plain kernel
  KESTREL_REGISTER_KERNEL(kSellSpmvPrefetch, kScalar, sell_spmv_scalar);
}

}  // namespace kestrel::mat::kernels
