// AVX-512 Talon SpMV. The block's columns are consecutive, so x is read
// with ONE unmasked vector load per block (edge-masked at the matrix
// boundary) instead of a gather, and the packed values are expanded into
// the mask's lanes with vpexpandpd (_mm512_maskz_expandloadu_pd) — the
// core trick of the SPC5 beta(r,c) kernels. The value pointer advances by
// popcount(mask) per row, so no zero padding is ever stored or multiplied.
// The panel body is specialized on the compile-time height R so the R
// accumulators live in registers and the row loop fully unrolls.

#include <immintrin.h>

#include <bit>
#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=talon isa=avx512

namespace kestrel::mat::kernels {

namespace {

/// The mask's popcount packed values expanded into its lanes, as doubles;
/// the fp32 stream expands floats (vpexpandps) and widens them.
template <class V>
inline __m512d expand8(__mmask8 mask, const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm512_cvtps_pd(_mm256_maskz_expandloadu_ps(mask, p));
  } else {
    return _mm512_maskz_expandloadu_pd(mask, p);
  }
}

template <int R, bool Add, class V>
void talon_panel_avx512(const TalonView& a, const V* val, Index p,
                        const Scalar* x, Scalar* y) {
  const Index row0 = a.panel_row[p];
  const V* v = val + a.panel_valptr[p];
  __m512d acc[R];
  for (int j = 0; j < R; ++j) acc[j] = _mm512_setzero_pd();
  for (Index b = a.panel_blockptr[p]; b < a.panel_blockptr[p + 1]; ++b) {
    const Index c0 = a.block_col[b];
    const std::uint32_t mask = a.block_mask[b];
    // One contiguous load of x covers the whole block; mask the tail off
    // at the right matrix edge so no out-of-bounds lane is touched.
    __m512d xv;
    if (c0 + kZmmDoubles <= a.n) {
      xv = _mm512_loadu_pd(x + c0);
    } else {
      const auto edge = static_cast<__mmask8>(
          (1u << static_cast<unsigned>(a.n - c0)) - 1u);
      xv = _mm512_maskz_loadu_pd(edge, x + c0);
    }
    for (int j = 0; j < R; ++j) {
      const auto mj = static_cast<__mmask8>(
          (mask >> (8u * static_cast<unsigned>(j))) & 0xFFu);
      const __m512d vals = expand8<V>(mj, v);
      // mask3 keeps lanes outside mj untouched, so an Inf/NaN in an
      // uncovered x lane can never leak into the accumulator.
      acc[j] = _mm512_mask3_fmadd_pd(vals, xv, acc[j], mj);
      v += std::popcount(static_cast<unsigned>(mj));
    }
  }
  for (int j = 0; j < R; ++j) {
    const Scalar sum = _mm512_reduce_add_pd(acc[j]);
    if constexpr (Add) {
      y[row0 + j] += sum;
    } else {
      y[row0 + j] = sum;
    }
  }
}

/// One body for every entry point: V is the stored value type, Add
/// accumulates into y.
template <bool Add, class V>
void talon_spmv_avx512_impl(const TalonView& a, const V* val,
                            const Scalar* x, Scalar* y) {
  for (Index p = 0; p < a.npanels; ++p) {
    switch (a.panel_row[p + 1] - a.panel_row[p]) {
      case 1:
        talon_panel_avx512<1, Add, V>(a, val, p, x, y);
        break;
      case 2:
        talon_panel_avx512<2, Add, V>(a, val, p, x, y);
        break;
      default:
        talon_panel_avx512<4, Add, V>(a, val, p, x, y);
        break;
    }
  }
}

// argus-kernel: talon_spmv_avx512
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_avx512(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx512_impl<false, Scalar>(a, a.val, x, y);
}
// argus-kernel: talon_spmv_fp32_avx512
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon_fp32
void talon_spmv_fp32_avx512(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx512_impl<false, float>(a, a.val32, x, y);
}
// argus-kernel: talon_spmv_add_avx512
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_add_avx512(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx512_impl<true, Scalar>(a, a.val, x, y);
}

}  // namespace

void register_talon_avx512() {
  KESTREL_REGISTER_KERNEL(kTalonSpmv, kAvx512, talon_spmv_avx512);
  KESTREL_REGISTER_KERNEL(kTalonSpmvFp32, kAvx512, talon_spmv_fp32_avx512);
  KESTREL_REGISTER_KERNEL(kTalonSpmvAdd, kAvx512, talon_spmv_add_avx512);
}

}  // namespace kestrel::mat::kernels
