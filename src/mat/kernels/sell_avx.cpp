// AVX SELL SpMV: Algorithm 2 without gather or FMA. Gathers are emulated
// with two 128-bit set/load + insert sequences, and mul/add are issued
// separately — exactly the instruction substitution described at the end of
// section 5.5.

#include <immintrin.h>

#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=sell isa=avx

namespace kestrel::mat::kernels {

namespace {

inline __m256d gather4_avx(const Scalar* x, const Index* idx) {
  const __m128d lo = _mm_set_pd(x[idx[1]], x[idx[0]]);
  const __m128d hi = _mm_set_pd(x[idx[3]], x[idx[2]]);
  return _mm256_insertf128_pd(_mm256_castpd128_pd256(lo), hi, 1);
}

template <bool Add>
inline void store4(Scalar* y, Index valid, __m256d acc) {
  alignas(32) Scalar tmp[4];
  if (valid >= 4) {
    if constexpr (Add) {
      _mm256_storeu_pd(y, _mm256_add_pd(_mm256_loadu_pd(y), acc));
    } else {
      _mm256_storeu_pd(y, acc);
    }
  } else if (valid > 0) {
    // kestrel-aligned: tmp is alignas(32) stack storage declared above
    _mm256_store_pd(tmp, acc);
    for (Index lane = 0; lane < valid; ++lane) {
      if constexpr (Add) {
        y[lane] += tmp[lane];
      } else {
        y[lane] = tmp[lane];
      }
    }
  }
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

/// One body for every entry point: V is the stored value type, Add
/// accumulates into y.
template <bool Add, class V>
void sell_spmv_avx_impl(const SellView& a, const V* val, const Scalar* x,
                         Scalar* y) {
  const Index c = a.c;  // multiple of 4, enforced by caller
  const Index nv = c / 4;
  __m256d acc[16];
  for (Index s = 0; s < a.nslices; ++s) {
    for (Index v = 0; v < nv; ++v) acc[v] = _mm256_setzero_pd();
    const Index begin = a.sliceptr[s];
    const Index end = a.sliceptr[s + 1];
    for (Index k = begin; k < end; k += c) {
      for (Index v = 0; v < nv; ++v) {
        const __m256d vals = load4<V>(val + k + v * 4);
        const __m256d vx = gather4_avx(x, a.colidx + k + v * 4);
        acc[v] = _mm256_add_pd(acc[v], _mm256_mul_pd(vals, vx));
      }
    }
    const Index row0 = s * c;
    const Index nrows = (row0 + c <= a.m) ? c : (a.m - row0);
    for (Index v = 0; v < nv && v * 4 < nrows; ++v) {
      store4<Add>(y + row0 + v * 4, nrows - v * 4, acc[v]);
    }
  }
}

// argus-kernel: sell_spmv_avx
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(4, c)
// argus-traffic: sell
void sell_spmv_avx(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_avx_impl<false, Scalar>(a, a.val, x, y);
}
// argus-kernel: sell_spmv_fp32_avx
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(4, c)
// argus-traffic: sell_fp32
void sell_spmv_fp32_avx(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_avx_impl<false, float>(a, a.val32, x, y);
}
// argus-kernel: sell_spmv_add_avx
// argus-param: a : view SellView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-require: divides(4, c)
// argus-traffic: sell
void sell_spmv_add_avx(const SellView& a, const Scalar* x, Scalar* y) {
  sell_spmv_avx_impl<true, Scalar>(a, a.val, x, y);
}

}  // namespace

void register_sell_avx() {
  KESTREL_REGISTER_KERNEL(kSellSpmv, kAvx, sell_spmv_avx);
  KESTREL_REGISTER_KERNEL(kSellSpmvFp32, kAvx, sell_spmv_fp32_avx);
  KESTREL_REGISTER_KERNEL(kSellSpmvAdd, kAvx, sell_spmv_add_avx);
}

}  // namespace kestrel::mat::kernels
