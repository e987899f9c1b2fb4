#pragma once
// Kestrel Aegis ABFT (algorithm-based fault tolerance) for SpMV.
//
// The classical Huang–Abraham column-checksum invariant: with
// c = Aᵀ·1 precomputed at assembly (from the format's own storage, via
// Matrix::abft_col_checksum), every fault-free multiply y = A·x satisfies
//   c·x == Σᵢ yᵢ
// up to rounding: a silent bit flip in the value stream, in x, or in y
// throws the two sums apart by (roughly) the flipped magnitude, far
// outside the rounding band. AbftCheck is the one check, run by AbftMatrix
// (any registered format, one checksum segment) and ParMatrix (its local
// columns, then its packed ghosts). On a mismatch the multiply is
// recomputed once — a transient fault (corrupted x/y read, soft error
// during the kernel) heals; a persistent one (corrupted matrix values)
// fails again and escalates to a structured AbftError.
//
// The verification is O(n) dot/sum passes, pooled like every Flock loop
// (par::for_each_chunk) and reported through KESTREL_PROF_SPMV as
// AbftVerify so -log_view / BENCH_spmv.json expose the overhead (target
// <10% of the SpMV itself on the fig08 set).
//
// Detection threshold: |c·x − Σy| ≤ tol·scale, where scale accumulates the
// absolute sums of both reductions. The default tol (1e-8) sits ~6 orders
// of magnitude above double rounding noise for n up to ~1e7 rows while
// still catching any flip in an exponent or high-mantissa bit; flips in
// the lowest few mantissa bits perturb the result by less than the
// tolerance band and are indistinguishable from rounding by design.

#include <atomic>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "mat/matrix.hpp"
#include "vec/vector.hpp"

namespace kestrel::aegis {

/// Tier-dispatched verification reductions (scalar / AVX2 / AVX-512,
/// selected at runtime): s = Σ cᵢxᵢ resp. Σ yᵢ, plus the absolute sum that
/// sets the rounding scale. AbftCheck runs them on each element chunk.
void dot_abs(const Scalar* c, const Scalar* x, Index n, Scalar* s,
             Scalar* abs_s);
void sum_abs(const Scalar* y, Index n, Scalar* s, Scalar* abs_s);

/// The one drift test over the reductions above: writes the drift
/// |cx − ysum| to drift_out (when non-null) and returns whether it is a
/// number within tol·(cx_abs + ysum_abs + 1). AbftCheck decides through it.
bool checksum_holds(Scalar cx, Scalar cx_abs, Scalar ysum, Scalar ysum_abs,
                    Scalar tol, Scalar* drift_out);

/// An operator's column checksums, one segment per block, and the one ABFT
/// check every guarded multiply runs.
class AbftCheck {
 public:
  /// Segment s is blocks[s]->abft_col_checksum(). `format` names the
  /// operator in an AbftError, and `where` (e.g. " on rank 1") is appended
  /// to its message.
  AbftCheck(std::initializer_list<const mat::Matrix*> blocks, Scalar tol,
            std::string format, std::string where = {});

  const Vector& segment(std::size_t s) const { return segments_[s]; }

  /// One verification of y = A·x (m rows), xs[s] being the x that segment
  /// s multiplies: writes the drift and returns checksum_holds over
  /// Σₛ cₛ·xₛ and Σy. Each pass folds its chunk partials in chunk order and
  /// the segments add left to right, so the drift is deterministic for a
  /// thread count.
  bool holds(std::initializer_list<const Scalar*> xs, const Scalar* y,
             Index m, Scalar tol, Scalar* drift) const;

  /// One verification (the AbftVerify event) at max(tol, tol_floor); on a
  /// mismatch recompute() redoes the multiply into y and one more
  /// verification runs, and AbftError is thrown if it fails too. Every
  /// step is counted in aegis::stats().
  template <class F>
  void check(std::initializer_list<const Scalar*> xs, const Scalar* y,
             Index m, F&& recompute, Scalar tol_floor = 0.0) const {
    using Fn = std::remove_reference_t<F>;
    run_check(xs, y, m, tol_floor,
              [](void* f) { (*static_cast<Fn*>(f))(); }, &recompute);
  }

 private:
  void run_check(std::initializer_list<const Scalar*> xs, const Scalar* y,
                 Index m, Scalar tol_floor, void (*recompute)(void*),
                 void* ctx) const;

  std::vector<Vector> segments_;
  Scalar tol_;
  std::string format_;
  std::string where_;
};

struct AbftOptions {
  Scalar tol = 1e-8;  ///< relative detection threshold (see header comment)
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
  void abft_col_checksum(Vector& c) const override {
    c.copy_from(check_.segment(0));
  }
  std::string format_name() const override {
    return "abft(" + inner_->format_name() + ")";
  }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

  const mat::Matrix& inner() const { return *inner_; }

 private:
  mat::MatrixPtr inner_;
  int verify_every_;
  AbftCheck check_;  ///< c = Aᵀ·1, fixed at construction
  /// verify_every sampling. Atomic: svc workers share one degraded twin,
  /// and each multiply takes its own count.
  mutable std::atomic<std::uint64_t> calls_{0};
};

}  // namespace kestrel::aegis
