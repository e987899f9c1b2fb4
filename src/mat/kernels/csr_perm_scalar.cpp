// Scalar CSRPerm (AIJPERM) SpMV: iterate group by group, rows within a
// group share a row length so the j-loop over positions is uniform —
// vector tiers vectorize ACROSS rows (paper section 2.4).

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr_perm isa=scalar

namespace kestrel::mat::kernels {

namespace {

/// One body for both entry points: V is the stored value type (double, or
/// the fp32 stream widened to double on load).
template <class V>
void csr_perm_spmv_scalar_impl(const CsrPermView& a, const V* val,
                               const Scalar* x, Scalar* y) {
  const CsrView& csr = a.csr;
  for (Index g = 0; g < a.ngroups; ++g) {
    const Index gb = a.group_begin[g];
    const Index ge = a.group_begin[g + 1];
    const Index len = a.group_rlen[g];
    for (Index p = gb; p < ge; ++p) {
      const Index row = a.perm[p];
      const Index base = csr.rowptr[row];
      Scalar sum = 0.0;
      for (Index j = 0; j < len; ++j) {
        sum += val[base + j] * x[csr.colidx[base + j]];
      }
      y[row] = sum;
    }
  }
}

// argus-kernel: csr_perm_spmv_scalar
// argus-param: a : view CsrPermView
// argus-param: x : in extent csr.n
// argus-param: y : out extent csr.m
// argus-traffic: csr_perm
void csr_perm_spmv_scalar(const CsrPermView& a, const Scalar* x, Scalar* y) {
  csr_perm_spmv_scalar_impl<Scalar>(a, a.csr.val, x, y);
}

// argus-kernel: csr_perm_spmv_fp32_scalar
// argus-param: a : view CsrPermView
// argus-param: x : in extent csr.n
// argus-param: y : out extent csr.m
// argus-traffic: csr_perm_fp32
void csr_perm_spmv_fp32_scalar(const CsrPermView& a, const Scalar* x,
                               Scalar* y) {
  csr_perm_spmv_scalar_impl<float>(a, a.csr.val32, x, y);
}

}  // namespace

void register_csr_perm_scalar() {
  KESTREL_REGISTER_KERNEL(kCsrPermSpmv, kScalar, csr_perm_spmv_scalar);
  KESTREL_REGISTER_KERNEL(kCsrPermSpmvFp32, kScalar,
                          csr_perm_spmv_fp32_scalar);
}

}  // namespace kestrel::mat::kernels
