// SELF-TEST FIXTURE — CSR AVX-512 fp32 entry point whose loop remainder
// widens the value stream with an UNMASKED 8-wide _mm256_loadu_ps. The tail
// holds rem in (2, 8) floats, so up to 5 floats past the row (and, on the
// last row, past the val32 array) are read. The double instantiation of the
// same body keeps its masked load, so only the fp32 entry point may fail.
//
// expect-violation: bounds :: val32

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr isa=avx512

namespace kestrel::mat::kernels {

namespace {

template <class V>
inline Scalar row_dot_avx512(const V* val, const Index* colidx, Index len,
                             const Scalar* x) {
  __m512d acc = _mm512_setzero_pd();
  Index k = 0;
  for (; k + 8 <= len; k += 8) {
    __m512d vals;
    if constexpr (std::is_same_v<V, float>) {
      vals = _mm512_cvtps_pd(_mm256_loadu_ps(val + k));
    } else {
      vals = _mm512_loadu_pd(val + k);
    }
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colidx + k));
    acc = _mm512_fmadd_pd(vals, _mm512_i32gather_pd(idx, x, 8), acc);
  }
  Scalar sum = _mm512_reduce_add_pd(acc);
  const Index rem = len - k;
  if (rem > 2) {
    const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
    __m512d vals;
    if constexpr (std::is_same_v<V, float>) {
      // BUG: the fp32 tail forgot its mask.
      vals = _mm512_cvtps_pd(_mm256_loadu_ps(val + k));
    } else {
      vals = _mm512_maskz_loadu_pd(mask, val + k);
    }
    const __m256i idx = _mm256_maskz_loadu_epi32(mask, colidx + k);
    const __m512d vx =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), mask, idx, x, 8);
    sum += _mm512_reduce_add_pd(_mm512_maskz_mul_pd(mask, vals, vx));
  } else {
    for (; k < len; ++k) sum += val[k] * x[colidx[k]];
  }
  return sum;
}

template <class V>
void csr_spmv_avx512_impl(const CsrView& a, const V* val, const Scalar* x,
                          Scalar* y) {
  for (Index i = 0; i < a.m; ++i) {
    const Index begin = a.rowptr[i];
    y[i] = row_dot_avx512<V>(val + begin, a.colidx + begin,
                             a.rowptr[i + 1] - begin, x);
  }
}

// argus-kernel: csr_spmv_avx512
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: none
void csr_spmv_avx512(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx512_impl<Scalar>(a, a.val, x, y);
}

// argus-kernel: csr_spmv_fp32_avx512
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: none
void csr_spmv_fp32_avx512(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx512_impl<float>(a, a.val32, x, y);
}

}  // namespace

void register_csr_fp32_unmasked_tail_fixture() {
  KESTREL_REGISTER_KERNEL(kCsrSpmv, kAvx512, csr_spmv_avx512);
  KESTREL_REGISTER_KERNEL(kCsrSpmvFp32, kAvx512, csr_spmv_fp32_avx512);
}

}  // namespace kestrel::mat::kernels
