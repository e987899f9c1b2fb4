#include "aegis/abft.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "par/pool.hpp"
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

namespace {

/// Runs an Aegis pass (dot_abs or sum_abs) on each element chunk of its
/// n-long arrays and sums the per-chunk partials in chunk order on the
/// caller, so the result is deterministic for a thread count.
template <class Pass, class... Arrays>
void pooled(Pass pass, Index n, Scalar* s, Scalar* abs_s,
            const Arrays*... arrays) {
  Scalar ps[par::kMaxPoolThreads] = {};
  Scalar pa[par::kMaxPoolThreads] = {};
  const int nchunks = par::for_each_chunk(n, [&](int p, Index i0, Index i1) {
    pass((arrays + i0)..., i1 - i0, &ps[p], &pa[p]);
  });
  Scalar sum = 0.0, abs_sum = 0.0;
  for (int p = 0; p < nchunks; ++p) {
    sum += ps[p];
    abs_sum += pa[p];
  }
  *s = sum;
  *abs_s = abs_sum;
}

const mat::Matrix& non_null(const mat::MatrixPtr& inner) {
  KESTREL_CHECK(inner != nullptr, "abft: null inner matrix");
  return *inner;
}

}  // namespace

AbftCheck::AbftCheck(std::initializer_list<const mat::Matrix*> blocks,
                     Scalar tol, std::string format, std::string where)
    : tol_(tol), format_(std::move(format)), where_(std::move(where)) {
  KESTREL_CHECK(tol_ > 0.0, "abft: tolerance must be positive");
  for (const mat::Matrix* b : blocks) {
    b->abft_col_checksum(segments_.emplace_back());
  }
}

bool AbftCheck::holds(std::initializer_list<const Scalar*> xs,
                      const Scalar* y, Index m, Scalar tol,
                      Scalar* drift) const {
  // One fused pass per operand: c·x with a running absolute sum for the
  // rounding scale, likewise for Σy. All segments pool into one drift and
  // one scale, so rounding in any of them is judged together.
  KESTREL_CHECK(xs.size() == segments_.size(), "abft: one x per segment");
  Scalar cx = 0.0, cx_abs = 0.0;
  const Scalar* const* x = xs.begin();
  for (const Vector& c : segments_) {
    Scalar s = 0.0, abs_s = 0.0;
    pooled(dot_abs, c.size(), &s, &abs_s, c.data(), *x++);
    cx += s;
    cx_abs += abs_s;
  }
  Scalar ysum = 0.0, ysum_abs = 0.0;
  pooled(sum_abs, m, &ysum, &ysum_abs, y);
  return checksum_holds(cx, cx_abs, ysum, ysum_abs, tol, drift);
}

void AbftCheck::run_check(std::initializer_list<const Scalar*> xs,
                          const Scalar* y, Index m, Scalar tol_floor,
                          void (*recompute)(void*), void* ctx) const {
  AegisStats& st = stats();
  const Scalar tol = std::max(tol_, tol_floor);
  Scalar drift = 0.0;
  bool ok = false;
  {
    Index ncols = 0;
    for (const Vector& c : segments_) ncols += c.size();
    KESTREL_PROF_SPMV("AbftVerify", 2 * (ncols + m),
                      sizeof(Scalar) * static_cast<std::size_t>(2 * ncols + m));
    st.abft_verifications++;
    ok = holds(xs, y, m, tol, &drift);
  }
  if (ok) return;
  st.abft_failures++;
  st.abft_retries++;
  recompute(ctx);
  st.abft_verifications++;
  if (holds(xs, y, m, tol, &drift)) {
    st.recoveries++;
    return;
  }
  throw AbftError(format_, drift,
                  "checksum invariant c.x == sum(y) still violated after "
                  "one recompute" + where_ +
                      " (persistent corruption in the matrix values, x, or y)",
                  __FILE__, __LINE__);
}

AbftMatrix::AbftMatrix(mat::MatrixPtr inner, AbftOptions opts)
    : inner_(std::move(inner)),
      verify_every_(opts.verify_every),
      check_({inner_.get()}, opts.tol, non_null(inner_).format_name()) {
  KESTREL_CHECK(verify_every_ >= 1, "abft: verify_every must be >= 1");
  tier_ = inner_->tier();
}

std::size_t AbftMatrix::storage_bytes() const {
  return inner_->storage_bytes() +
         static_cast<std::size_t>(check_.segment(0).size()) * sizeof(Scalar);
}

void AbftMatrix::spmv(const Scalar* x, Scalar* y) const {
  inner_->spmv(x, y);
  if (verify_every_ > 1 &&
      calls_++ % static_cast<std::uint64_t>(verify_every_) != 0) {
    return;
  }
  // When the wrapped matrix streams fp32 values (Kestrel Slim), the
  // checksum c (built from the fat double values) and the fp32 multiply
  // legitimately disagree at single-precision rounding (eps ~ 1.2e-7,
  // accumulated over a row). A 4e-5 floor keeps exponent/high-mantissa
  // flips detectable while never tripping on healthy slim multiplies.
  check_.check({x}, y, rows(), [&] { inner_->spmv(x, y); },
               inner_->slim_active() ? Scalar{4e-5} : Scalar{0});
}

}  // namespace kestrel::aegis
