// AVX2 BCSR SpMV specialized for 2x2 blocks (the Gray–Scott dof=2 shape,
// paper section 3.2): one 256-bit load grabs a whole block, the two x
// entries are broadcast as a 128-bit pair, and no gather is needed at all
// — natural blocks turn SpMV's indirect accesses into dense ones.

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=bcsr isa=avx2

namespace kestrel::mat::kernels {

namespace {

/// One 2x2 block as four doubles; the fp32 stream widens on load.
template <class V>
inline __m256d load4(const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  } else {
    return _mm256_loadu_pd(p);
  }
}

template <class V>
void bcsr_spmv_bs2_avx2(const BcsrView& a, const V* val, const Scalar* x,
                        Scalar* y) {
  for (Index ib = 0; ib < a.mb; ++ib) {
    // acc = [s0_part0, s0_part1, s1_part0, s1_part1]
    __m256d acc = _mm256_setzero_pd();
    for (Index k = a.rowptr[ib]; k < a.rowptr[ib + 1]; ++k) {
      const V* blk = val + static_cast<std::size_t>(k) * 4;
      // block row-major: [b00 b01 b10 b11]
      const __m256d b = load4<V>(blk);
      // xc pair broadcast to both 128-bit lanes: [x0 x1 x0 x1]
      const __m128d xc = _mm_loadu_pd(x + a.colidx[k] * 2);
      const __m256d xx =
          _mm256_insertf128_pd(_mm256_castpd128_pd256(xc), xc, 1);
      acc = _mm256_fmadd_pd(b, xx, acc);
    }
    // y0 = acc[0] + acc[1], y1 = acc[2] + acc[3]
    const __m256d sums = _mm256_hadd_pd(acc, acc);  // [a0+a1, a0+a1, a2+a3, a2+a3]
    const __m128d lo = _mm256_castpd256_pd128(sums);
    const __m128d hi = _mm256_extractf128_pd(sums, 1);
    _mm_storeu_pd(y + ib * 2, _mm_unpacklo_pd(lo, hi));
  }
}

/// One body for both entry points: V is the stored value type.
template <class V>
void bcsr_spmv_avx2_impl(const BcsrView& a, const V* val, const Scalar* x,
                         Scalar* y) {
  // only bs == 2 has a vector path; everything else runs the same scalar
  // algorithm as the scalar TU
  if (a.bs == 2) {
    bcsr_spmv_bs2_avx2<V>(a, val, x, y);
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

// argus-kernel: bcsr_spmv_generic_avx2
// argus-param: a : view BcsrView
// argus-param: x : in extent nb * bs
// argus-param: y : out extent mb * bs
// argus-traffic: bcsr
void bcsr_spmv_generic_avx2(const BcsrView& a, const Scalar* x, Scalar* y) {
  bcsr_spmv_avx2_impl<Scalar>(a, a.val, x, y);
}

// argus-kernel: bcsr_spmv_fp32_avx2
// argus-param: a : view BcsrView
// argus-param: x : in extent nb * bs
// argus-param: y : out extent mb * bs
// argus-traffic: bcsr_fp32
void bcsr_spmv_fp32_avx2(const BcsrView& a, const Scalar* x, Scalar* y) {
  bcsr_spmv_avx2_impl<float>(a, a.val32, x, y);
}

}  // namespace

void register_bcsr_avx2() {
  KESTREL_REGISTER_KERNEL(kBcsrSpmv, kAvx2, bcsr_spmv_generic_avx2);
  KESTREL_REGISTER_KERNEL(kBcsrSpmvFp32, kAvx2, bcsr_spmv_fp32_avx2);
}

}  // namespace kestrel::mat::kernels
