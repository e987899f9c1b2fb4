// Scalar (compiler-autovectorized) CSR SpMV — the paper's "CSR baseline".
// Built without any -m<isa> flags so it reflects the compiler's default
// code generation, exactly like PETSc's stock MatMult_SeqAIJ.

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr isa=scalar

namespace kestrel::mat::kernels {

namespace {

/// One body for every entry point: V is the stored value type (double, or
/// the fp32 stream widened to double on load); Add scatters each row sum
/// into y[rows[i]] (compressed off-diagonal rows) instead of storing y[i].
template <bool Add, class V>
void csr_spmv_scalar_impl(const CsrView& a, const V* val, const Index* rows,
                          const Scalar* x, Scalar* y) {
  for (Index i = 0; i < a.m; ++i) {
    Scalar sum = 0.0;
    const Index end = a.rowptr[i + 1];
    for (Index k = a.rowptr[i]; k < end; ++k) {
      sum += val[k] * x[a.colidx[k]];
    }
    if constexpr (Add) {
      y[rows[i]] += sum;
    } else {
      y[i] = sum;
    }
  }
}

// argus-kernel: csr_spmv_scalar
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr
void csr_spmv_scalar(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_scalar_impl<false, Scalar>(a, a.val, nullptr, x, y);
}

// argus-kernel: csr_spmv_fp32_scalar
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr_fp32
void csr_spmv_fp32_scalar(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_scalar_impl<false, float>(a, a.val32, nullptr, x, y);
}

// argus-kernel: csr_spmv_add_rows_scalar
// argus-param: a : view CsrView
// argus-param: rows : in extent m elem [0, len(y))
// argus-param: x : in extent n
// argus-param: y : out
// argus-traffic: none
void csr_spmv_add_rows_scalar(const CsrView& a, const Index* rows,
                              const Scalar* x, Scalar* y) {
  csr_spmv_scalar_impl<true, Scalar>(a, a.val, rows, x, y);
}

}  // namespace

void register_csr_scalar() {
  KESTREL_REGISTER_KERNEL(kCsrSpmv, kScalar, csr_spmv_scalar);
  KESTREL_REGISTER_KERNEL(kCsrSpmvFp32, kScalar, csr_spmv_fp32_scalar);
  KESTREL_REGISTER_KERNEL(kCsrSpmvAddRows, kScalar, csr_spmv_add_rows_scalar);
}

}  // namespace kestrel::mat::kernels
