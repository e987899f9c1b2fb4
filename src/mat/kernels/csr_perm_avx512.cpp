// AVX-512 CSRPerm (AIJPERM) SpMV: vectorized ACROSS rows within a group of
// equal-length rows (paper section 2.4). Values and column indices are
// gathered with computed offsets — the non-unit-stride access pattern that
// was effective on Cray X1 vector machines but, as Figure 8 shows, buys
// nothing over plain CSR on KNL.

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=csr_perm isa=avx512

namespace kestrel::mat::kernels {

namespace {

/// Eight values gathered at per-lane offsets, as doubles; the fp32 stream
/// gathers floats and widens them (vcvtps2pd).
template <class V>
inline __m512d gather8(const V* val, __m256i off) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm512_cvtps_pd(_mm256_i32gather_ps(val, off, 4));
  } else {
    return _mm512_i32gather_pd(off, val, 8);
  }
}

/// One body for both entry points: V is the stored value type.
template <class V>
void csr_perm_spmv_avx512_impl(const CsrPermView& a, const V* val,
                               const Scalar* x, Scalar* y) {
  const CsrView& csr = a.csr;
  for (Index g = 0; g < a.ngroups; ++g) {
    const Index gb = a.group_begin[g];
    const Index ge = a.group_begin[g + 1];
    const Index len = a.group_rlen[g];
    Index p = gb;
    for (; p + 8 <= ge; p += 8) {
      const __m256i rows =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.perm + p));
      // base[r] = rowptr[rows[r]]
      __m256i off = _mm256_i32gather_epi32(csr.rowptr, rows, 4);
      __m512d acc = _mm512_setzero_pd();
      for (Index j = 0; j < len; ++j) {
        const __m256i cols = _mm256_i32gather_epi32(csr.colidx, off, 4);
        const __m512d vals = gather8<V>(val, off);
        const __m512d vx = _mm512_i32gather_pd(cols, x, 8);
        acc = _mm512_fmadd_pd(vals, vx, acc);
        off = _mm256_add_epi32(off, _mm256_set1_epi32(1));
      }
      _mm512_i32scatter_pd(y, rows, acc, 8);
    }
    for (; p < ge; ++p) {  // remainder rows of the group
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

// argus-kernel: csr_perm_spmv_avx512
// argus-param: a : view CsrPermView
// argus-param: x : in extent csr.n
// argus-param: y : out extent csr.m
// argus-traffic: csr_perm
void csr_perm_spmv_avx512(const CsrPermView& a, const Scalar* x, Scalar* y) {
  csr_perm_spmv_avx512_impl<Scalar>(a, a.csr.val, x, y);
}

// argus-kernel: csr_perm_spmv_fp32_avx512
// argus-param: a : view CsrPermView
// argus-param: x : in extent csr.n
// argus-param: y : out extent csr.m
// argus-traffic: csr_perm_fp32
void csr_perm_spmv_fp32_avx512(const CsrPermView& a, const Scalar* x,
                               Scalar* y) {
  csr_perm_spmv_avx512_impl<float>(a, a.csr.val32, x, y);
}

}  // namespace

void register_csr_perm_avx512() {
  KESTREL_REGISTER_KERNEL(kCsrPermSpmv, kAvx512, csr_perm_spmv_avx512);
  KESTREL_REGISTER_KERNEL(kCsrPermSpmvFp32, kAvx512,
                          csr_perm_spmv_fp32_avx512);
}

}  // namespace kestrel::mat::kernels
