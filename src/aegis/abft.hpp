#pragma once
// Kestrel Aegis ABFT (algorithm-based fault tolerance) for SpMV.
//
// The classical Huang–Abraham column-checksum invariant: with
// c = Aᵀ·1 precomputed at assembly (from the format's own storage, via
// Matrix::abft_col_checksum), every fault-free multiply y = A·x satisfies
//   c·x == Σᵢ yᵢ
// up to rounding. AbftMatrix wraps any registered format and verifies that
// invariant after each spmv: a silent bit flip in the value stream, in x,
// or in y throws the two sums apart by (roughly) the flipped magnitude,
// far outside the rounding band. On a mismatch the multiply is recomputed
// once — a transient fault (corrupted x/y read, soft error during the
// kernel) heals; a persistent one (corrupted matrix values) fails again
// and escalates to a structured AbftError.
//
// The verification is two O(n) dot/sum passes per multiply, reported
// through KESTREL_PROF_SPMV as AbftVerify so -log_view / BENCH_spmv.json
// expose the overhead (target <10% of the SpMV itself on the fig08 set).
//
// Detection threshold: |c·x − Σy| ≤ tol·scale, where scale accumulates the
// absolute sums of both reductions. The default tol (1e-8) sits ~6 orders
// of magnitude above double rounding noise for n up to ~1e7 rows while
// still catching any flip in an exponent or high-mantissa bit; flips in
// the lowest few mantissa bits perturb the result by less than the
// tolerance band and are indistinguishable from rounding by design.

#include <functional>

#include "mat/matrix.hpp"
#include "vec/vector.hpp"

namespace kestrel::aegis {

/// Tier-dispatched verification reductions (scalar / AVX2 / AVX-512,
/// selected at runtime): s = Σ cᵢxᵢ resp. Σ yᵢ, plus the absolute sum that
/// sets the rounding scale. Exposed so the ParMatrix ABFT path shares the
/// vectorized passes.
void dot_abs(const Scalar* c, const Scalar* x, Index n, Scalar* s,
             Scalar* abs_s);
void sum_abs(const Scalar* y, Index n, Scalar* s, Scalar* abs_s);

struct AbftOptions {
  Scalar tol = 1e-8;  ///< relative detection threshold (see header comment)
  int max_retries = 1;  ///< recompute attempts before escalating
  /// Verify every k-th multiply (default: every one). The verification
  /// passes stream 3 vectors against the multiply's ~nnz/row·1.5 — a hard
  /// memory-traffic floor of ~24/(12·nnz/row + 16) — so on fast formats
  /// (SELL-AVX512 at nnz/row = 10: ~18%) sampled verification is the only
  /// way under a tighter budget; k = 2 halves the overhead at the cost of
  /// leaving alternate multiplies unchecked (EXPERIMENTS.md §ABFT).
  int verify_every = 1;
};

class AbftMatrix final : public mat::Matrix {
 public:
  explicit AbftMatrix(mat::MatrixPtr inner, AbftOptions opts = {});

  // Matrix interface — forwards to the wrapped format, with spmv verified.
  Index rows() const override { return inner_->rows(); }
  Index cols() const override { return inner_->cols(); }
  std::int64_t nnz() const override { return inner_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override;
  using Matrix::spmv;
  /// Kestrel Slim state is the wrapped format's (the inner matrix must be
  /// slimmed before wrapping — MatrixPtr is const, so set_slim declines).
  bool slim_active() const override { return inner_->slim_active(); }
  void get_diagonal(Vector& d) const override { inner_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override { c.copy_from(colsum_); }
  std::string format_name() const override {
    return "abft(" + inner_->format_name() + ")";
  }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

  const mat::Matrix& inner() const { return *inner_; }
  const Vector& col_checksum() const { return colsum_; }

  /// Test / fault-injection hook: the callback corrupts (y, rows) once,
  /// right after the next inner multiply — modeling a transient soft error
  /// that the recompute-retry recovers from.
  void inject_fault_once(std::function<void(Scalar*, Index)> f) const {
    inject_once_ = std::move(f);
  }

  /// One verification pass: returns the drift |c·x − Σy| and whether it is
  /// within tolerance. Exposed for tests and the ParMatrix ABFT path.
  static bool verify(const Vector& colsum, const Scalar* x, const Scalar* y,
                     Index ylen, Scalar tol, Scalar* drift_out);

 private:
  /// Detection threshold actually used: when the wrapped matrix streams
  /// fp32 values (Kestrel Slim), the checksum c (built from the fat double
  /// values) and the fp32 multiply legitimately disagree at single-precision
  /// rounding, so the band widens to keep fault detection meaningful
  /// instead of tripping on every multiply.
  Scalar effective_tol() const;

  mat::MatrixPtr inner_;
  AbftOptions opts_;
  Vector colsum_;  ///< c = Aᵀ·1, fixed at construction
  mutable std::uint64_t calls_ = 0;  ///< for verify_every sampling
  mutable std::function<void(Scalar*, Index)> inject_once_;
};

}  // namespace kestrel::aegis
