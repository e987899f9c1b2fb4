// Scalar BCSR (BAIJ) SpMV with an unrolled fast path for the 2x2 blocks
// that PDE systems with two degrees of freedom produce (the Gray–Scott
// Jacobian is exactly this shape).

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=bcsr isa=scalar

namespace kestrel::mat::kernels {

namespace {

template <class V>
void bcsr_spmv_bs2(const BcsrView& a, const V* val, const Scalar* x,
                   Scalar* y) {
  for (Index ib = 0; ib < a.mb; ++ib) {
    Scalar s0 = 0.0, s1 = 0.0;
    for (Index k = a.rowptr[ib]; k < a.rowptr[ib + 1]; ++k) {
      const V* b = val + static_cast<std::size_t>(k) * 4;
      const Scalar* xc = x + a.colidx[k] * 2;
      s0 += b[0] * xc[0] + b[1] * xc[1];
      s1 += b[2] * xc[0] + b[3] * xc[1];
    }
    y[ib * 2] = s0;
    y[ib * 2 + 1] = s1;
  }
}

/// One body for both entry points: V is the stored value type (double, or
/// the fp32 stream widened to double on load).
template <class V>
void bcsr_spmv_scalar_impl(const BcsrView& a, const V* val, const Scalar* x,
                           Scalar* y) {
  if (a.bs == 2) {
    bcsr_spmv_bs2<V>(a, val, x, y);
    return;
  }
  const Index bs = a.bs;
  for (Index ib = 0; ib < a.mb; ++ib) {
    Scalar* yr = y + ib * bs;
    for (Index r = 0; r < bs; ++r) yr[r] = 0.0;
    for (Index k = a.rowptr[ib]; k < a.rowptr[ib + 1]; ++k) {
      const V* b = val + static_cast<std::size_t>(k) * bs * bs;
      const Scalar* xc = x + a.colidx[k] * bs;
      for (Index r = 0; r < bs; ++r) {
        Scalar sum = 0.0;
        for (Index cidx = 0; cidx < bs; ++cidx) {
          sum += b[r * bs + cidx] * xc[cidx];
        }
        yr[r] += sum;
      }
    }
  }
}

// argus-kernel: bcsr_spmv_scalar
// argus-param: a : view BcsrView
// argus-param: x : in extent nb * bs
// argus-param: y : out extent mb * bs
// argus-traffic: bcsr
void bcsr_spmv_scalar(const BcsrView& a, const Scalar* x, Scalar* y) {
  bcsr_spmv_scalar_impl<Scalar>(a, a.val, x, y);
}

// argus-kernel: bcsr_spmv_fp32_scalar
// argus-param: a : view BcsrView
// argus-param: x : in extent nb * bs
// argus-param: y : out extent mb * bs
// argus-traffic: bcsr_fp32
void bcsr_spmv_fp32_scalar(const BcsrView& a, const Scalar* x, Scalar* y) {
  bcsr_spmv_scalar_impl<float>(a, a.val32, x, y);
}

}  // namespace

void register_bcsr_scalar() {
  KESTREL_REGISTER_KERNEL(kBcsrSpmv, kScalar, bcsr_spmv_scalar);
  KESTREL_REGISTER_KERNEL(kBcsrSpmvFp32, kScalar, bcsr_spmv_fp32_scalar);
}

}  // namespace kestrel::mat::kernels
