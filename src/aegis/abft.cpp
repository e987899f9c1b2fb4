#include "aegis/abft.hpp"

#include <cmath>
#include <utility>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "prof/profiler.hpp"
#include "simd/isa.hpp"

#if defined(__x86_64__) && defined(__GNUC__)
#define KESTREL_ABFT_X86 1
#include <immintrin.h>
#endif

namespace kestrel::aegis {

namespace {

// The two verification reductions: s = Σ cᵢxᵢ (resp. Σ yᵢ) together with
// the absolute sum that sets the rounding scale. Unlike the SpMV kernels
// these are too small to earn their own per-tier translation units, so the
// vector variants use GCC/Clang target attributes in this one TU and are
// picked at runtime from the same tier ladder (simd::detect_best_tier).
using DotAbsFn = void (*)(const Scalar*, const Scalar*, Index, Scalar*,
                          Scalar*);
using SumAbsFn = void (*)(const Scalar*, Index, Scalar*, Scalar*);

void dot_abs_scalar(const Scalar* c, const Scalar* x, Index n, Scalar* s,
                    Scalar* abs_s) {
  // Four independent accumulators break the FP-add latency chain.
  Scalar s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  Scalar a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  Index j = 0;
  for (; j + 4 <= n; j += 4) {
    const Scalar t0 = c[j] * x[j];
    const Scalar t1 = c[j + 1] * x[j + 1];
    const Scalar t2 = c[j + 2] * x[j + 2];
    const Scalar t3 = c[j + 3] * x[j + 3];
    s0 += t0;
    s1 += t1;
    s2 += t2;
    s3 += t3;
    a0 += std::abs(t0);
    a1 += std::abs(t1);
    a2 += std::abs(t2);
    a3 += std::abs(t3);
  }
  for (; j < n; ++j) {
    const Scalar t = c[j] * x[j];
    s0 += t;
    a0 += std::abs(t);
  }
  *s = (s0 + s1) + (s2 + s3);
  *abs_s = (a0 + a1) + (a2 + a3);
}

void sum_abs_scalar(const Scalar* y, Index n, Scalar* s, Scalar* abs_s) {
  Scalar s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  Scalar a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  Index i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += y[i];
    s1 += y[i + 1];
    s2 += y[i + 2];
    s3 += y[i + 3];
    a0 += std::abs(y[i]);
    a1 += std::abs(y[i + 1]);
    a2 += std::abs(y[i + 2]);
    a3 += std::abs(y[i + 3]);
  }
  for (; i < n; ++i) {
    s0 += y[i];
    a0 += std::abs(y[i]);
  }
  *s = (s0 + s1) + (s2 + s3);
  *abs_s = (a0 + a1) + (a2 + a3);
}

#if defined(KESTREL_ABFT_X86)

__attribute__((target("avx2,fma"))) void dot_abs_avx2(const Scalar* c,
                                                      const Scalar* x,
                                                      Index n, Scalar* s,
                                                      Scalar* abs_s) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  Index j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256d t0 =
        _mm256_mul_pd(_mm256_loadu_pd(c + j), _mm256_loadu_pd(x + j));
    const __m256d t1 =
        _mm256_mul_pd(_mm256_loadu_pd(c + j + 4), _mm256_loadu_pd(x + j + 4));
    s0 = _mm256_add_pd(s0, t0);
    s1 = _mm256_add_pd(s1, t1);
    a0 = _mm256_add_pd(a0, _mm256_andnot_pd(sign, t0));
    a1 = _mm256_add_pd(a1, _mm256_andnot_pd(sign, t1));
  }
  alignas(32) Scalar lanes[4];
  // kestrel-aligned: lanes is a local alignas(32) spill buffer
  _mm256_store_pd(lanes, _mm256_add_pd(s0, s1));
  Scalar sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  // kestrel-aligned: same alignas(32) buffer
  _mm256_store_pd(lanes, _mm256_add_pd(a0, a1));
  Scalar abs_sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; j < n; ++j) {
    const Scalar t = c[j] * x[j];
    sum += t;
    abs_sum += std::abs(t);
  }
  *s = sum;
  *abs_s = abs_sum;
}

__attribute__((target("avx2,fma"))) void sum_abs_avx2(const Scalar* y,
                                                      Index n, Scalar* s,
                                                      Scalar* abs_s) {
  const __m256d sign = _mm256_set1_pd(-0.0);
  __m256d s0 = _mm256_setzero_pd(), s1 = _mm256_setzero_pd();
  __m256d a0 = _mm256_setzero_pd(), a1 = _mm256_setzero_pd();
  Index i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d t0 = _mm256_loadu_pd(y + i);
    const __m256d t1 = _mm256_loadu_pd(y + i + 4);
    s0 = _mm256_add_pd(s0, t0);
    s1 = _mm256_add_pd(s1, t1);
    a0 = _mm256_add_pd(a0, _mm256_andnot_pd(sign, t0));
    a1 = _mm256_add_pd(a1, _mm256_andnot_pd(sign, t1));
  }
  alignas(32) Scalar lanes[4];
  // kestrel-aligned: lanes is a local alignas(32) spill buffer
  _mm256_store_pd(lanes, _mm256_add_pd(s0, s1));
  Scalar sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  // kestrel-aligned: same alignas(32) buffer
  _mm256_store_pd(lanes, _mm256_add_pd(a0, a1));
  Scalar abs_sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; i < n; ++i) {
    sum += y[i];
    abs_sum += std::abs(y[i]);
  }
  *s = sum;
  *abs_s = abs_sum;
}

__attribute__((target("avx512f"))) void dot_abs_avx512(const Scalar* c,
                                                       const Scalar* x,
                                                       Index n, Scalar* s,
                                                       Scalar* abs_s) {
  __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
  __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
  Index j = 0;
  for (; j + 16 <= n; j += 16) {
    const __m512d t0 =
        _mm512_mul_pd(_mm512_loadu_pd(c + j), _mm512_loadu_pd(x + j));
    const __m512d t1 =
        _mm512_mul_pd(_mm512_loadu_pd(c + j + 8), _mm512_loadu_pd(x + j + 8));
    s0 = _mm512_add_pd(s0, t0);
    s1 = _mm512_add_pd(s1, t1);
    a0 = _mm512_add_pd(a0, _mm512_abs_pd(t0));
    a1 = _mm512_add_pd(a1, _mm512_abs_pd(t1));
  }
  Scalar sum = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
  Scalar abs_sum = _mm512_reduce_add_pd(_mm512_add_pd(a0, a1));
  for (; j < n; ++j) {
    const Scalar t = c[j] * x[j];
    sum += t;
    abs_sum += std::abs(t);
  }
  *s = sum;
  *abs_s = abs_sum;
}

__attribute__((target("avx512f"))) void sum_abs_avx512(const Scalar* y,
                                                       Index n, Scalar* s,
                                                       Scalar* abs_s) {
  __m512d s0 = _mm512_setzero_pd(), s1 = _mm512_setzero_pd();
  __m512d a0 = _mm512_setzero_pd(), a1 = _mm512_setzero_pd();
  Index i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512d t0 = _mm512_loadu_pd(y + i);
    const __m512d t1 = _mm512_loadu_pd(y + i + 8);
    s0 = _mm512_add_pd(s0, t0);
    s1 = _mm512_add_pd(s1, t1);
    a0 = _mm512_add_pd(a0, _mm512_abs_pd(t0));
    a1 = _mm512_add_pd(a1, _mm512_abs_pd(t1));
  }
  Scalar sum = _mm512_reduce_add_pd(_mm512_add_pd(s0, s1));
  Scalar abs_sum = _mm512_reduce_add_pd(_mm512_add_pd(a0, a1));
  for (; i < n; ++i) {
    sum += y[i];
    abs_sum += std::abs(y[i]);
  }
  *s = sum;
  *abs_s = abs_sum;
}

#endif  // KESTREL_ABFT_X86

DotAbsFn pick_dot_abs() {
#if defined(KESTREL_ABFT_X86)
  const simd::IsaTier best = simd::detect_best_tier();
  if (best >= simd::IsaTier::kAvx512) return dot_abs_avx512;
  if (best >= simd::IsaTier::kAvx2) return dot_abs_avx2;
#endif
  return dot_abs_scalar;
}

SumAbsFn pick_sum_abs() {
#if defined(KESTREL_ABFT_X86)
  const simd::IsaTier best = simd::detect_best_tier();
  if (best >= simd::IsaTier::kAvx512) return sum_abs_avx512;
  if (best >= simd::IsaTier::kAvx2) return sum_abs_avx2;
#endif
  return sum_abs_scalar;
}

}  // namespace

void dot_abs(const Scalar* c, const Scalar* x, Index n, Scalar* s,
             Scalar* abs_s) {
  static const DotAbsFn fn = pick_dot_abs();
  fn(c, x, n, s, abs_s);
}

void sum_abs(const Scalar* y, Index n, Scalar* s, Scalar* abs_s) {
  static const SumAbsFn fn = pick_sum_abs();
  fn(y, n, s, abs_s);
}

bool checksum_holds(Scalar cx, Scalar cx_abs, Scalar ysum, Scalar ysum_abs,
                    Scalar tol, Scalar* drift_out) {
  const Scalar drift = std::abs(cx - ysum);
  if (drift_out != nullptr) *drift_out = drift;
  if (std::isnan(drift)) return false;
  return drift <= tol * (cx_abs + ysum_abs + 1.0);
}

AbftMatrix::AbftMatrix(mat::MatrixPtr inner, AbftOptions opts)
    : inner_(std::move(inner)), opts_(opts) {
  KESTREL_CHECK(inner_ != nullptr, "abft: null inner matrix");
  KESTREL_CHECK(opts_.tol > 0.0, "abft: tolerance must be positive");
  KESTREL_CHECK(opts_.max_retries >= 0, "abft: negative retry budget");
  KESTREL_CHECK(opts_.verify_every >= 1, "abft: verify_every must be >= 1");
  inner_->abft_col_checksum(colsum_);
  tier_ = inner_->tier();
}

std::size_t AbftMatrix::storage_bytes() const {
  return inner_->storage_bytes() +
         static_cast<std::size_t>(colsum_.size()) * sizeof(Scalar);
}

bool AbftMatrix::verify(const Vector& colsum, const Scalar* x,
                        const Scalar* y, Index ylen, Scalar tol,
                        Scalar* drift_out) {
  // One fused pass per operand: cx = c·x with a running absolute sum for
  // the rounding scale, likewise for Σy. The reductions are tier-dispatched
  // (see above) — an O(n) scalar pass next to a vectorized O(nnz) multiply
  // is what would blow the <10% overhead budget.
  Scalar cx = 0.0, cx_abs = 0.0;
  dot_abs(colsum.data(), x, colsum.size(), &cx, &cx_abs);
  Scalar ysum = 0.0, ysum_abs = 0.0;
  sum_abs(y, ylen, &ysum, &ysum_abs);
  return checksum_holds(cx, cx_abs, ysum, ysum_abs, tol, drift_out);
}

Scalar AbftMatrix::effective_tol() const {
  // fp32 rounding (eps ~ 1.2e-7) accumulated over a row sits well above
  // the default 1e-8 double band; 4e-5 keeps exponent/high-mantissa flips
  // detectable while never tripping on healthy slim multiplies.
  return inner_->slim_active() ? std::max(opts_.tol, Scalar{4e-5})
                               : opts_.tol;
}

void AbftMatrix::spmv(const Scalar* x, Scalar* y) const {
  AegisStats& st = stats();
  inner_->spmv(x, y);
  // verify_every sampling: unchecked multiplies return immediately (a
  // pending injected fault still forces verification so tests never race
  // the sample phase).
  if (opts_.verify_every > 1 && !inject_once_ &&
      (calls_++ % static_cast<std::uint64_t>(opts_.verify_every)) != 0) {
    return;
  }
  if (inject_once_) {
    // Transient-fault injection point: fires once, between the multiply
    // and its verification, exactly where a soft error would land.
    auto f = std::move(inject_once_);
    inject_once_ = nullptr;
    f(y, rows());
  }
  Scalar drift = 0.0;
  bool ok;
  {
    KESTREL_PROF_SPMV("AbftVerify",
                      2 * (cols() + rows()),
                      sizeof(Scalar) *
                          static_cast<std::size_t>(2 * cols() + rows()));
    st.abft_verifications++;
    ok = verify(colsum_, x, y, rows(), effective_tol(), &drift);
  }
  if (ok) return;
  st.abft_failures++;
  for (int attempt = 0; attempt < opts_.max_retries; ++attempt) {
    st.abft_retries++;
    inner_->spmv(x, y);
    st.abft_verifications++;
    if (verify(colsum_, x, y, rows(), effective_tol(), &drift)) {
      st.recoveries++;
      return;
    }
  }
  throw AbftError(inner_->format_name(), drift,
                  "checksum invariant c.x == sum(y) still violated after " +
                      std::to_string(opts_.max_retries) +
                      " recompute retries (persistent corruption in the "
                      "matrix values, x, or y)",
                  __FILE__, __LINE__);
}

}  // namespace kestrel::aegis
