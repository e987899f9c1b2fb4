#pragma once
// Krylov solver layer (PETSc KSP).
//
// Solvers are written against LinearContext, which hides whether the
// operator/preconditioner/dot-products are sequential or distributed: the
// same CG/GMRES code runs on one rank against a mat::Matrix or on many
// ranks against a ParMatrix (with allreduce dot products), mirroring how
// PETSc layers KSP above Mat/Vec (paper Figure 1).

#include <functional>
#include <memory>
#include <string>

#include "base/deadline.hpp"
#include "base/types.hpp"
#include "vec/vector.hpp"

namespace kestrel::pc {
class Pc;
}

namespace kestrel::ksp {

enum class Reason {
  kConvergedRtol,
  kConvergedAtol,
  kDivergedMaxIts,
  kDivergedNan,
  kDivergedBreakdown,
  /// Kestrel Bastion: Settings::deadline expired (wall budget or cooperative
  /// cancel) before convergence; x holds the best iterate reached.
  kDeadlineExceeded,
};

const char* reason_name(Reason r);

struct SolveResult {
  bool converged = false;
  int iterations = 0;  ///< total across recovery restarts
  Scalar residual_norm = 0.0;
  Reason reason = Reason::kDivergedMaxIts;
  /// Breakdown-recovery restarts taken (Kestrel Aegis); 0 on a clean solve.
  int restarts = 0;
};

struct Settings {
  Scalar rtol = 1e-8;
  Scalar atol = 1e-50;
  int max_iterations = 10000;
  int gmres_restart = 30;
  /// Kestrel Aegis breakdown recovery: on DIVERGED_BREAKDOWN / DIVERGED_NAN
  /// the driver restarts the method from the current iterate (or the entry
  /// guess when the iterate is NaN/Inf-poisoned), recomputing the true
  /// residual, up to max_restarts times before falling back to the
  /// structured failure.
  bool breakdown_recovery = false;
  int max_restarts = 1;
  /// Kestrel Bastion: checked in Solver::check() at every iteration; on
  /// expiry (wall budget or cooperative cancel) the method stops with
  /// Reason::kDeadlineExceeded, leaving the best iterate in x. Default is an
  /// inactive token that never expires.
  Deadline deadline;
  /// Called after each iteration with (iteration, residual norm).
  std::function<void(int, Scalar)> monitor;
};

/// The solver's window onto the linear system. Vectors passed to solvers
/// are the LOCAL blocks; dot() performs the global reduction when the
/// context is distributed.
class LinearContext {
 public:
  virtual ~LinearContext() = default;

  /// Local length of solution/rhs vectors.
  virtual Index local_size() const = 0;
  /// Stored nonzeros of the (local part of the) operator, so the KSPSolve
  /// profiler event can account ~2*nnz flops per iteration (Kestrel Pulse
  /// pairs them with measured cycles for a solver-level IPC). 0 = unknown,
  /// e.g. matrix-free contexts.
  virtual std::int64_t operator_nnz() const { return 0; }
  /// y = A * x.
  virtual void apply_operator(const Vector& x, Vector& y) = 0;
  /// The preconditioner M, acting on local blocks; nullptr (the default)
  /// means M = I. Solvers may exploit M = I (CG then tests ‖r‖ on its rᵀz
  /// and skips one reduction per iteration), so a context that
  /// preconditions must say so here.
  virtual const pc::Pc* preconditioner() const { return nullptr; }
  /// Globally reduced inner product.
  virtual Scalar dot(const Vector& a, const Vector& b);

  /// z = M^{-1} r: applies preconditioner(), or copies r when there is
  /// none.
  void apply_pc(const Vector& r, Vector& z);
  Scalar norm2(const Vector& a);
};

class Solver {
 public:
  virtual ~Solver() = default;
  explicit Solver(Settings settings = {}) : settings_(settings) {}

  /// Solves A x = b starting from the incoming x (use x.set(0) for a zero
  /// initial guess). Non-virtual recovery driver (Kestrel Aegis): runs the
  /// method via solve_once and, when Settings::breakdown_recovery is set,
  /// restarts it on breakdown / NaN divergence / AbftError up to
  /// Settings::max_restarts times before surfacing the failure. The whole
  /// call is recorded as the "KSPSolve" profiler event with
  /// iterations * 2 * ctx.operator_nnz() flops, so every caller (SNES, TS,
  /// examples, benches) gets solver-level timing + measured counters
  /// without wrapping it themselves.
  SolveResult solve(LinearContext& ctx, const Vector& b, Vector& x) const;

  virtual std::string name() const = 0;

  Settings& settings() { return settings_; }
  const Settings& settings() const { return settings_; }

 protected:
  /// One un-recovered run of the Krylov method. Restart-from-iterate works
  /// because every method recomputes the true residual b - A x at entry.
  virtual SolveResult solve_once(LinearContext& ctx, const Vector& b,
                                 Vector& x) const = 0;

  /// Shared convergence test; returns true when iteration should stop.
  bool check(Scalar rnorm, Scalar rnorm0, int it, SolveResult* out) const;

  Settings settings_;

 private:
  /// The Aegis recovery driver (the body of solve(), minus profiling).
  SolveResult solve_driver(LinearContext& ctx, const Vector& b,
                           Vector& x) const;
};

/// Factory keyed by PETSc-style names: cg, gmres, fgmres, bicgstab (alias
/// bcgs) and richardson. Chebyshev needs spectrum bounds, so it is
/// constructed directly, not through the factory.
std::unique_ptr<Solver> make_solver(const std::string& type,
                                    Settings settings = {});

// Concrete solvers ---------------------------------------------------------

class Cg final : public Solver {
 public:
  using Solver::Solver;
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
  std::string name() const override { return "cg"; }
};

/// Restarted GMRES(m), left-preconditioned. FGmres runs the same body
/// preconditioned on the right.
class Gmres : public Solver {
 public:
  explicit Gmres(Settings settings = {}) : Gmres(settings, false) {}
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
  std::string name() const override { return "gmres"; }

 protected:
  Gmres(Settings settings, bool flexible)
      : Solver(settings), flexible_(flexible) {}

 private:
  bool flexible_;  ///< right preconditioning with stored M^{-1} v_j
};

/// Flexible GMRES (right-preconditioned; the preconditioner may vary per
/// iteration).
class FGmres final : public Gmres {
 public:
  explicit FGmres(Settings settings = {}) : Gmres(settings, true) {}
  std::string name() const override { return "fgmres"; }
};

class BiCgStab final : public Solver {
 public:
  using Solver::Solver;
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
  std::string name() const override { return "bicgstab"; }
};

class Richardson final : public Solver {
 public:
  explicit Richardson(Settings settings = {}, Scalar omega = 1.0)
      : Solver(settings), omega_(omega) {}
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
  std::string name() const override { return "richardson"; }

 private:
  Scalar omega_;
};

class Chebyshev final : public Solver {
 public:
  /// Requires estimates of the preconditioned operator's extreme
  /// eigenvalues; PETSc-style smoothing defaults target the upper part of
  /// the spectrum.
  Chebyshev(Settings settings, Scalar emin, Scalar emax)
      : Solver(settings), emin_(emin), emax_(emax) {}
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
  std::string name() const override { return "chebyshev"; }

 private:
  Scalar emin_, emax_;
};

/// Largest eigenvalue estimate of the preconditioned operator M^{-1}A via
/// power iteration (used to configure Chebyshev smoothers).
Scalar estimate_max_eigenvalue(LinearContext& ctx, int iterations = 20,
                               std::uint64_t seed = 12345);

// Ready-made contexts -------------------------------------------------------

}  // namespace kestrel::ksp
