// AVX-512 CSR SpMV — Algorithm 1 of the paper.
//
// The inner product of one matrix row with x is vectorized 8 doubles at a
// time: contiguous loads from val, a 32-bit-index gather from x, and FMA
// accumulation. The loop remainder is vectorized with masked operations
// only when it is longer than 2 elements (section 4: below that the mask
// setup overhead exceeds the scalar cost).

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr isa=avx512

namespace kestrel::mat::kernels {

namespace {

/// Eight stored values as doubles; the fp32 stream widens on load
/// (vcvtps2pd), so the FMA and the accumulator stay double.
template <class V>
inline __m512d load8(const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  } else {
    return _mm512_loadu_pd(p);
  }
}

template <class V>
inline __m512d maskz_load8(__mmask8 mask, const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm512_cvtps_pd(_mm256_maskz_loadu_ps(mask, p));
  } else {
    return _mm512_maskz_loadu_pd(mask, p);
  }
}

template <class V>
inline Scalar row_dot_avx512(const V* val, const Index* colidx, Index len,
                             const Scalar* x) {
  __m512d acc = _mm512_setzero_pd();
  Index k = 0;
  for (; k + 8 <= len; k += 8) {
    const __m512d vals = load8<V>(val + k);
    const __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(colidx + k));
    const __m512d vx = _mm512_i32gather_pd(idx, x, 8);
    acc = _mm512_fmadd_pd(vals, vx, acc);
  }
  Scalar sum = _mm512_reduce_add_pd(acc);
  const Index rem = len - k;
  if (rem > 2) {
    const __mmask8 mask = static_cast<__mmask8>((1u << rem) - 1u);
    const __m512d vals = maskz_load8<V>(mask, val + k);
    const __m256i idx = _mm256_maskz_loadu_epi32(mask, colidx + k);
    const __m512d vx =
        _mm512_mask_i32gather_pd(_mm512_setzero_pd(), mask, idx, x, 8);
    sum += _mm512_reduce_add_pd(_mm512_maskz_mul_pd(mask, vals, vx));
  } else {
    for (; k < len; ++k) sum += val[k] * x[colidx[k]];
  }
  return sum;
}

/// One body for every entry point: V is the stored value type, Add
/// scatters row sums into y[rows[i]] (compressed off-diagonal rows).
template <bool Add, class V>
void csr_spmv_avx512_impl(const CsrView& a, const V* val, const Index* rows,
                          const Scalar* x, Scalar* y) {
  for (Index i = 0; i < a.m; ++i) {
    const Index begin = a.rowptr[i];
    const Scalar sum = row_dot_avx512<V>(val + begin, a.colidx + begin,
                                         a.rowptr[i + 1] - begin, x);
    if constexpr (Add) {
      y[rows[i]] += sum;
    } else {
      y[i] = sum;
    }
  }
}

// argus-kernel: csr_spmv_avx512
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr
void csr_spmv_avx512(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx512_impl<false, Scalar>(a, a.val, nullptr, x, y);
}

// argus-kernel: csr_spmv_fp32_avx512
// argus-param: a : view CsrView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: csr_fp32
void csr_spmv_fp32_avx512(const CsrView& a, const Scalar* x, Scalar* y) {
  csr_spmv_avx512_impl<false, float>(a, a.val32, nullptr, x, y);
}

// argus-kernel: csr_spmv_add_rows_avx512
// argus-param: a : view CsrView
// argus-param: rows : in extent m elem [0, len(y))
// argus-param: x : in extent n
// argus-param: y : out
// argus-traffic: none
void csr_spmv_add_rows_avx512(const CsrView& a, const Index* rows,
                              const Scalar* x, Scalar* y) {
  csr_spmv_avx512_impl<true, Scalar>(a, a.val, rows, x, y);
}

}  // namespace

void register_csr_avx512() {
  KESTREL_REGISTER_KERNEL(kCsrSpmv, kAvx512, csr_spmv_avx512);
  KESTREL_REGISTER_KERNEL(kCsrSpmvFp32, kAvx512, csr_spmv_fp32_avx512);
  KESTREL_REGISTER_KERNEL(kCsrSpmvAddRows, kAvx512, csr_spmv_add_rows_avx512);
}

}  // namespace kestrel::mat::kernels
