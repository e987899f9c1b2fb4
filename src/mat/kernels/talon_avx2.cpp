// AVX2 Talon SpMV fallback. AVX2 has no expand-load, so a 256-entry
// constexpr table turns each 8-bit block mask into its packed column
// offsets; 4 packed values at a time are multiplied against a gather of
// x[c0 + offset] (the gather stays within one 64-byte block of x since
// offsets are < 8). Remainder entries run scalar. The panel body is
// specialized on the compile-time height R so accumulators stay in
// registers.

#include <immintrin.h>

#include <array>
#include <bit>
#include <cstring>
#include <type_traits>

#include "mat/kernels/registration.hpp"
#include "mat/kernels/views.hpp"
#include "simd/dispatch.hpp"

// argus-contract: format=talon isa=avx2
// argus-table: kOffsets = setbits

namespace kestrel::mat::kernels {

namespace {

/// kOffsets[mask][i] = column offset of the i-th set bit of `mask`.
constexpr auto make_offsets() {
  std::array<std::array<std::uint8_t, 8>, 256> t{};
  for (unsigned mask = 0; mask < 256; ++mask) {
    unsigned i = 0;
    for (unsigned bit = 0; bit < 8; ++bit) {
      if ((mask >> bit) & 1u) t[mask][i++] = static_cast<std::uint8_t>(bit);
    }
  }
  return t;
}
constexpr auto kOffsets = make_offsets();

/// Four packed values as doubles; the fp32 stream widens on load.
template <class V>
inline __m256d load4(const V* p) {
  if constexpr (std::is_same_v<V, float>) {
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
  } else {
    return _mm256_loadu_pd(p);
  }
}

template <int R, bool Add, class V>
void talon_panel_avx2(const TalonView& a, const V* val, Index p,
                      const Scalar* x, Scalar* y) {
  const Index row0 = a.panel_row[p];
  const V* v = val + a.panel_valptr[p];
  __m256d acc[R];
  Scalar tail[R] = {};
  for (int j = 0; j < R; ++j) acc[j] = _mm256_setzero_pd();
  for (Index b = a.panel_blockptr[p]; b < a.panel_blockptr[p + 1]; ++b) {
    const Index c0 = a.block_col[b];
    const std::uint32_t mask = a.block_mask[b];
    for (int j = 0; j < R; ++j) {
      const std::uint32_t bits =
          (mask >> (8u * static_cast<unsigned>(j))) & 0xFFu;
      const int cnt = std::popcount(bits);
      const std::uint8_t* off = kOffsets[bits].data();
      int k = 0;
      for (; k + 4 <= cnt; k += 4) {
        std::uint32_t word;
        std::memcpy(&word, off + k, sizeof(word));
        const __m128i idx =
            _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(word)));
        const __m256d xs = _mm256_i32gather_pd(x + c0, idx, 8);
        const __m256d vals = load4<V>(v + k);
        acc[j] = _mm256_fmadd_pd(vals, xs, acc[j]);
      }
      for (; k < cnt; ++k) tail[j] += v[k] * x[c0 + off[k]];
      v += cnt;
    }
  }
  for (int j = 0; j < R; ++j) {
    const __m128d lo = _mm256_castpd256_pd128(acc[j]);
    const __m128d hi = _mm256_extractf128_pd(acc[j], 1);
    const __m128d pair = _mm_add_pd(lo, hi);
    const Scalar sum =
        _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair))) +
        tail[j];
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
void talon_spmv_avx2_impl(const TalonView& a, const V* val, const Scalar* x,
                          Scalar* y) {
  for (Index p = 0; p < a.npanels; ++p) {
    switch (a.panel_row[p + 1] - a.panel_row[p]) {
      case 1:
        talon_panel_avx2<1, Add, V>(a, val, p, x, y);
        break;
      case 2:
        talon_panel_avx2<2, Add, V>(a, val, p, x, y);
        break;
      default:
        talon_panel_avx2<4, Add, V>(a, val, p, x, y);
        break;
    }
  }
}

// argus-kernel: talon_spmv_avx2
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_avx2(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx2_impl<false, Scalar>(a, a.val, x, y);
}
// argus-kernel: talon_spmv_fp32_avx2
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon_fp32
void talon_spmv_fp32_avx2(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx2_impl<false, float>(a, a.val32, x, y);
}
// argus-kernel: talon_spmv_add_avx2
// argus-param: a : view TalonView
// argus-param: x : in extent n
// argus-param: y : out extent m
// argus-traffic: talon
void talon_spmv_add_avx2(const TalonView& a, const Scalar* x, Scalar* y) {
  talon_spmv_avx2_impl<true, Scalar>(a, a.val, x, y);
}

}  // namespace

void register_talon_avx2() {
  KESTREL_REGISTER_KERNEL(kTalonSpmv, kAvx2, talon_spmv_avx2);
  KESTREL_REGISTER_KERNEL(kTalonSpmvFp32, kAvx2, talon_spmv_fp32_avx2);
  KESTREL_REGISTER_KERNEL(kTalonSpmvAdd, kAvx2, talon_spmv_add_avx2);
}

}  // namespace kestrel::mat::kernels
