#include "ksp/ksp.hpp"

#include <cmath>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "pc/pc.hpp"
#include "prof/profiler.hpp"

namespace kestrel::ksp {

const char* reason_name(Reason r) {
  switch (r) {
    case Reason::kConvergedRtol:
      return "converged_rtol";
    case Reason::kConvergedAtol:
      return "converged_atol";
    case Reason::kDivergedMaxIts:
      return "diverged_max_iterations";
    case Reason::kDivergedNan:
      return "diverged_nan";
    case Reason::kDivergedBreakdown:
      return "diverged_breakdown";
    case Reason::kDeadlineExceeded:
      return "deadline_exceeded";
  }
  return "?";
}

void LinearContext::apply_pc(const Vector& r, Vector& z) {
  if (const pc::Pc* pc = preconditioner()) {
    pc->apply(r, z);
  } else {
    z.copy_from(r);
  }
}

Scalar LinearContext::dot(const Vector& a, const Vector& b) {
  return a.dot(b);
}

Scalar LinearContext::norm2(const Vector& a) {
  return std::sqrt(dot(a, a));
}

SolveResult Solver::solve(LinearContext& ctx, const Vector& b,
                          Vector& x) const {
  if (!prof::enabled()) return solve_driver(ctx, b, x);
  // Owns the "KSPSolve" event: flop counting needs the iteration count, so
  // this is a manual begin/end rather than a ScopedEvent, kept LIFO-correct
  // across the unwind when the recovery budget is exhausted.
  static const int ev_ksp = prof::registered_event("KSPSolve");
  prof::Profiler& plog = prof::current();
  plog.begin(ev_ksp);
  SolveResult result;
  try {
    result = solve_driver(ctx, b, x);
  } catch (...) {
    plog.end(ev_ksp);
    throw;
  }
  const std::int64_t nnz = ctx.operator_nnz();
  plog.end(ev_ksp,
           static_cast<std::uint64_t>(result.iterations) * 2u *
               static_cast<std::uint64_t>(nnz > 0 ? nnz : 0));
  return result;
}

SolveResult Solver::solve_driver(LinearContext& ctx, const Vector& b,
                                 Vector& x) const {
  if (!settings_.breakdown_recovery) return solve_once(ctx, b, x);

  // Kestrel Aegis recovery driver. Every method recomputes the true
  // residual b - A x at entry, so a restart is simply another solve_once
  // from wherever the previous attempt left the iterate — unless that
  // iterate is NaN/Inf-poisoned, in which case we fall back to the guess
  // the caller handed in.
  Vector entry_guess(x.size());
  entry_guess.copy_from(x);

  aegis::AegisStats& st = aegis::stats();
  SolveResult result;
  int total_iterations = 0;
  int restarts = 0;
  for (;;) {
    bool abft_tripped = false;
    try {
      result = solve_once(ctx, b, x);
    } catch (const AbftError&) {
      // The operator's checksum retry already failed once; treat a thrown
      // AbftError like a breakdown and re-run the method, but give up and
      // rethrow once the restart budget is spent.
      if (restarts >= settings_.max_restarts) throw;
      abft_tripped = true;
      result = SolveResult{};  // iterations inside the aborted run are lost
      result.reason = Reason::kDivergedBreakdown;
    }
    total_iterations += result.iterations;
    const bool broken =
        !result.converged && (result.reason == Reason::kDivergedBreakdown ||
                              result.reason == Reason::kDivergedNan);
    if (!broken || restarts >= settings_.max_restarts) break;
    ++restarts;
    st.solver_restarts++;
    bool finite = true;
    for (Index i = 0; i < x.size(); ++i) {
      if (!std::isfinite(x[i])) {
        finite = false;
        break;
      }
    }
    if (!finite || abft_tripped) x.copy_from(entry_guess);
  }
  result.iterations = total_iterations;
  result.restarts = restarts;
  if (result.converged && restarts > 0) st.recoveries++;
  return result;
}

bool Solver::check(Scalar rnorm, Scalar rnorm0, int it,
                   SolveResult* out) const {
  out->iterations = it;
  out->residual_norm = rnorm;
  if (settings_.monitor) settings_.monitor(it, rnorm);
  if (prof::enabled()) {
    prof::current().record_history("KSP(" + name() + ")",
                                   static_cast<double>(it), rnorm);
  }
  if (std::isnan(rnorm) || std::isinf(rnorm)) {
    out->converged = false;
    out->reason = Reason::kDivergedNan;
    return true;
  }
  if (rnorm <= settings_.atol) {
    out->converged = true;
    out->reason = Reason::kConvergedAtol;
    return true;
  }
  if (rnorm <= settings_.rtol * rnorm0) {
    out->converged = true;
    out->reason = Reason::kConvergedRtol;
    return true;
  }
  // Deadline after the convergence tests: a solve that converges exactly at
  // the wire still reports success. Not a "broken" reason, so the Aegis
  // recovery driver never restarts an expired solve.
  if (settings_.deadline.expired()) {
    out->converged = false;
    out->reason = Reason::kDeadlineExceeded;
    return true;
  }
  if (it >= settings_.max_iterations) {
    out->converged = false;
    out->reason = Reason::kDivergedMaxIts;
    return true;
  }
  return false;
}

std::unique_ptr<Solver> make_solver(const std::string& type,
                                    Settings settings) {
  if (type == "cg") return std::make_unique<Cg>(settings);
  if (type == "gmres") return std::make_unique<Gmres>(settings);
  if (type == "fgmres") return std::make_unique<FGmres>(settings);
  if (type == "bicgstab" || type == "bcgs") {
    return std::make_unique<BiCgStab>(settings);
  }
  if (type == "richardson") return std::make_unique<Richardson>(settings);
  KESTREL_FAIL("unknown solver type '" + type +
               "' (expected cg|gmres|fgmres|bicgstab|richardson)");
}

Scalar estimate_max_eigenvalue(LinearContext& ctx, int iterations,
                               std::uint64_t seed) {
  const Index n = ctx.local_size();
  Rng rng(seed);
  Vector v(n), av(n), z(n);
  for (Index i = 0; i < n; ++i) v[i] = rng.uniform(-1.0, 1.0);
  Scalar lambda = 1.0;
  for (int it = 0; it < iterations; ++it) {
    const Scalar nv = ctx.norm2(v);
    if (nv == 0.0) break;
    v.scale(1.0 / nv);
    ctx.apply_operator(v, av);
    ctx.apply_pc(av, z);  // z = M^{-1} A v
    lambda = ctx.dot(v, z);
    v.copy_from(z);
  }
  return std::abs(lambda);
}

}  // namespace kestrel::ksp
