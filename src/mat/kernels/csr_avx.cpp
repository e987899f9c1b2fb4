// AVX (pre-AVX2) CSR SpMV: no hardware gather and no FMA, so x elements are
// assembled with two 128-bit loads + insert, and multiply/add are issued
// separately (paper section 5.5 — the separate mul/add chains can actually
// pipeline better than serialized FMAs on KNL).

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr isa=avx

namespace kestrel::mat::kernels {

namespace {

inline __m256d gather4_avx(const Scalar* x, const Index* idx) {
  const __m128d lo = _mm_set_pd(x[idx[1]], x[idx[0]]);
  const __m128d hi = _mm_set_pd(x[idx[3]], x[idx[2]]);
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
}

inline Scalar hsum256(__m256d v) {
  const __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  const __m128d sum2 = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(sum2, sum2);
  return _mm_cvtsd_f64(_mm_add_sd(sum2, swapped));
}

/// Four stored values as doubles; the fp32 stream widens on load.
template <class V>
inline __m256d load4(const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  } else {
    return _mm256_loadu_pd(p);
  }
}

template <class V>
inline Scalar row_dot_avx(const V* val, const Index* colidx, Index len,
                          const Scalar* x) {
  __m256d acc = _mm256_setzero_pd();
  Index k = 0;
  for (; k + 4 <= len; k += 4) {
    const __m256d vals = load4<V>(val + k);
    const __m256d vx = gather4_avx(x, colidx + k);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(vals, vx));
  }
  Scalar sum = hsum256(acc);
  for (; k < len; ++k) sum += val[k] * x[colidx[k]];
  return sum;
}

/// One body for every entry point: V is the stored value type, Add
/// scatters row sums into y[rows[i]] (compressed off-diagonal rows).
template <bool Add, class V>
void csr_spmv_avx_impl(const CsrView& a, const V* val, const Index* rows,
                       const Scalar* x, Scalar* y) {
  for (Index i = 0; i < a.m; ++i) {
    const Index begin = a.rowptr[i];
    const Scalar sum = row_dot_avx<V>(val + begin, a.colidx + begin,
                                      a.rowptr[i + 1] - begin, x);
    if constexpr (Add) {
      y[rows[i]] += sum;
    } else {
      y[i] = sum;
    }
  }
}

// argus-kernel: csr_spmv_avx
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr
void csr_spmv_avx(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx_impl<false, Scalar>(a, a.val, nullptr, x, y);
}

// argus-kernel: csr_spmv_fp32_avx
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr_fp32
void csr_spmv_fp32_avx(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx_impl<false, float>(a, a.val32, nullptr, x, y);
}

// argus-kernel: csr_spmv_add_rows_avx
// argus-param: a : view CsrView
// argus-param: rows : in extent m elem [0, len(y))
// argus-param: x : in extent n
// argus-param: y : out
// argus-traffic: none
void csr_spmv_add_rows_avx(const CsrView& a, const Index* rows,
                           const Scalar* x, Scalar* y) {
  csr_spmv_avx_impl<true, Scalar>(a, a.val, rows, x, y);
}

}  // namespace

void register_csr_avx() {
  KESTREL_REGISTER_KERNEL(kCsrSpmv, kAvx, csr_spmv_avx);
  KESTREL_REGISTER_KERNEL(kCsrSpmvFp32, kAvx, csr_spmv_fp32_avx);
  KESTREL_REGISTER_KERNEL(kCsrSpmvAddRows, kAvx, csr_spmv_add_rows_avx);
}

}  // namespace kestrel::mat::kernels
