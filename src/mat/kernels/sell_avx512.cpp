// AVX-512 SELL SpMV — Algorithm 2 of the paper.
//
// One slice of C=8 rows updates 8 contiguous output elements. Slice data is
// stored column-major, so each iteration of the inner loop issues one
// aligned 64-byte load from val, one 32-byte load of 8 column
// indices, one gather from x and one FMA. Padding guarantees every slice is
// a whole number of 8-element columns, so the inner loop needs no masks at
// all; only the store of the (possibly short) last slice is masked
// (section 5.5). Slice heights that are larger multiples of 8 are handled
// with multiple accumulators (ablation of section 5.1).

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=sell isa=avx512

namespace kestrel::mat::kernels {

namespace {

inline void store_lanes(Scalar* y, Index nrows, Index lane0, __m512d acc) {
  // nrows counts valid rows in the whole slice; this vector covers rows
  // [lane0, lane0+8).
  const Index valid = nrows - lane0;
  if (valid >= 8) {
    _mm512_storeu_pd(y, acc);
  } else if (valid > 0) {
    const __mmask8 mask = static_cast<__mmask8>((1u << valid) - 1u);
    _mm512_mask_storeu_pd(y, mask, acc);
  }
}

/// Eight stored values as doubles; the fp32 stream widens on load
/// (vcvtps2pd), so the FMA and the accumulators stay double.
template <class V>
inline __m512d load8(const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm512_cvtps_pd(_mm256_loadu_ps(p));
  } else {
    return _mm512_loadu_pd(p);
  }
}

/// One body for every entry point: V is the stored value type.
template <class V>
void sell_spmv_avx512_impl(const SellView& a, const V* val, const Scalar* x,
                           Scalar* y) {
  const Index c = a.c;
  if (c == 8) {
    // The production configuration (section 5.1): fixed slice height 8.
    for (Index s = 0; s < a.nslices; ++s) {
      __m512d acc = _mm512_setzero_pd();
      const Index begin = a.sliceptr[s];
      const Index end = a.sliceptr[s + 1];
      for (Index k = begin; k < end; k += 8) {
        const __m512d vals = load8<V>(val + k);
        const __m256i idx =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.colidx + k));
        const __m512d vx = _mm512_i32gather_pd(idx, x, 8);
        acc = _mm512_fmadd_pd(vals, vx, acc);
      }
      const Index row0 = s * 8;
      const Index nrows = (row0 + 8 <= a.m) ? 8 : (a.m - row0);
      store_lanes(y + row0, nrows, 0, acc);
    }
    return;
  }
  // General c (multiple of 8): c/8 accumulators per slice.
  const Index nv = c / 8;
  __m512d acc[8];  // c <= 64
  for (Index s = 0; s < a.nslices; ++s) {
    for (Index v = 0; v < nv; ++v) acc[v] = _mm512_setzero_pd();
    const Index begin = a.sliceptr[s];
    const Index end = a.sliceptr[s + 1];
    for (Index k = begin; k < end; k += c) {
      for (Index v = 0; v < nv; ++v) {
        const __m512d vals = load8<V>(val + k + v * 8);
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a.colidx + k + v * 8));
        const __m512d vx = _mm512_i32gather_pd(idx, x, 8);
        acc[v] = _mm512_fmadd_pd(vals, vx, acc[v]);
      }
    }
    const Index row0 = s * c;
    const Index nrows = (row0 + c <= a.m) ? c : (a.m - row0);
    for (Index v = 0; v < nv && v * 8 < nrows; ++v) {
      store_lanes(y + row0 + v * 8, nrows, v * 8, acc[v]);
    }
  }
}

// argus-kernel: sell_spmv_avx512
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(8, c)
// argus-traffic: sell
void sell_spmv_avx512(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_avx512_impl<Scalar>(a, a.val, x, y);
}
// argus-kernel: sell_spmv_fp32_avx512
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(8, c)
// argus-traffic: sell_fp32
void sell_spmv_fp32_avx512(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_avx512_impl<float>(a, a.val32, x, y);
}

/// ESB-style bit-array variant (section 5.3): padded lanes are skipped via
/// per-column masks instead of multiplying stored zeros. Kept for the
/// ablation bench; the paper measured it ~10% SLOWER than the unmasked
/// kernel because of mask-handling overhead and lost load alignment.
// argus-kernel: sell_spmv_bitmask_avx512
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(8, c)
// argus-traffic: none
void sell_spmv_bitmask_avx512(const SellView& a, const Scalar* x, Scalar* y) {
  const Index c = a.c;  // multiple of 8, enforced by caller
  const Index nv = c / 8;
  __m512d acc[8];  // c <= 64
  for (Index s = 0; s < a.nslices; ++s) {
    for (Index v = 0; v < nv; ++v) acc[v] = _mm512_setzero_pd();
    const Index begin = a.sliceptr[s];
    const Index end = a.sliceptr[s + 1];
    for (Index k = begin; k < end; k += c) {
      // One bitmask word per slice column: bit `lane` of word k/c covers
      // element k+lane, so vector v takes bits [8v, 8v+8).
      const std::uint64_t word = a.bitmask[k / c];
      for (Index v = 0; v < nv; ++v) {
        const __mmask8 mask = static_cast<__mmask8>(word >> (v * 8));
        const __m512d vals = _mm512_maskz_loadu_pd(mask, a.val + k + v * 8);
        const __m256i idx = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(a.colidx + k + v * 8));
        const __m512d vx =
            _mm512_mask_i32gather_pd(_mm512_setzero_pd(), mask, idx, x, 8);
        acc[v] = _mm512_mask3_fmadd_pd(vals, vx, acc[v], mask);
      }
    }
    const Index row0 = s * c;
    const Index nrows = (row0 + c <= a.m) ? c : (a.m - row0);
    for (Index v = 0; v < nv && v * 8 < nrows; ++v) {
      store_lanes(y + row0 + v * 8, nrows, v * 8, acc[v]);
    }
  }
}

/// Section 5.5 variant: outer loop manually unrolled by two slices with a
/// software prefetch of the next slice's data issued before each inner
/// loop. The paper notes these classic techniques "do not affect the
/// performance significantly" — kept as a dispatchable variant so the
/// ablation bench can verify that on real hardware. Requires c == 8.
// argus-kernel: sell_spmv_avx512_prefetch
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: c == 8
// argus-traffic: sell
void sell_spmv_avx512_prefetch(const SellView& a, const Scalar* x,
                               Scalar* y) {
  const Index ns = a.nslices;
  Index s = 0;
  for (; s + 2 <= ns; s += 2) {
    // prefetch the *following* pair of slices
    if (s + 2 < ns) {
      const Index nk = a.sliceptr[s + 2];
      _mm_prefetch(reinterpret_cast<const char*>(a.val + nk), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(a.colidx + nk),
                   _MM_HINT_T0);
    }
    __m512d acc0 = _mm512_setzero_pd();
    __m512d acc1 = _mm512_setzero_pd();
    const Index b0 = a.sliceptr[s], e0 = a.sliceptr[s + 1];
    const Index e1 = a.sliceptr[s + 2];
    for (Index k = b0; k < e0; k += 8) {
      const __m512d vals = _mm512_loadu_pd(a.val + k);
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.colidx + k));
      acc0 = _mm512_fmadd_pd(vals, _mm512_i32gather_pd(idx, x, 8), acc0);
    }
    for (Index k = e0; k < e1; k += 8) {
      const __m512d vals = _mm512_loadu_pd(a.val + k);
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.colidx + k));
      acc1 = _mm512_fmadd_pd(vals, _mm512_i32gather_pd(idx, x, 8), acc1);
    }
    _mm512_storeu_pd(y + s * 8, acc0);
    const Index row1 = (s + 1) * 8;
    const Index nrows1 = (row1 + 8 <= a.m) ? 8 : (a.m - row1);
    store_lanes(y + row1, nrows1, 0, acc1);
  }
  for (; s < ns; ++s) {  // odd tail slice
    __m512d acc = _mm512_setzero_pd();
    for (Index k = a.sliceptr[s]; k < a.sliceptr[s + 1]; k += 8) {
      const __m512d vals = _mm512_loadu_pd(a.val + k);
      const __m256i idx =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a.colidx + k));
      acc = _mm512_fmadd_pd(vals, _mm512_i32gather_pd(idx, x, 8), acc);
    }
    const Index row0 = s * 8;
    const Index nrows = (row0 + 8 <= a.m) ? 8 : (a.m - row0);
    store_lanes(y + row0, nrows, 0, acc);
  }
}

}  // namespace

void register_sell_avx512() {
  KESTREL_REGISTER_KERNEL(kSellSpmv, kAvx512, sell_spmv_avx512);
  KESTREL_REGISTER_KERNEL(kSellSpmvFp32, kAvx512, sell_spmv_fp32_avx512);
  KESTREL_REGISTER_KERNEL(kSellSpmvBitmask, kAvx512, sell_spmv_bitmask_avx512);
  KESTREL_REGISTER_KERNEL(kSellSpmvPrefetch, kAvx512,
                          sell_spmv_avx512_prefetch);
}

}  // namespace kestrel::mat::kernels
