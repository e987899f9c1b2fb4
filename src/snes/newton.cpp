#include "snes/newton.hpp"

#include <cmath>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "ksp/context.hpp"
#include "mat/coo.hpp"
#include "pc/jacobi.hpp"
#include "prof/profiler.hpp"

namespace kestrel::snes {

NewtonResult newton_solve(const NonlinearFunction& f, Vector& u,
                          const NewtonOptions& opts) {
  const Index n = f.size();
  KESTREL_CHECK(u.size() == n, "newton: initial guess size mismatch");
  // The whole Newton solve is one profiler event; the nested
  // SNESJacobianEval / PCSetUp / KSPSolve events break down its time.
  static const int ev_snes = prof::registered_event("SNESSolve");
  prof::ScopedEvent snes_scope(ev_snes);

  auto format_factory = opts.format_factory;
  if (!format_factory) {
    format_factory = [](const mat::Csr& a) {
      return std::make_shared<const mat::Csr>(a);
    };
  }
  auto pc_factory = opts.pc_factory;
  if (!pc_factory) {
    pc_factory = [](const mat::Csr& a) -> std::unique_ptr<pc::Pc> {
      return std::make_unique<pc::Jacobi>(a);
    };
  }
  auto solver = ksp::make_solver(opts.ksp_type, opts.ksp);
  // Kestrel Bastion: the outer deadline also bounds the nested KSP, unless
  // the caller armed a tighter per-linear-solve token already.
  if (opts.deadline.active() && !solver->settings().deadline.active()) {
    solver->settings().deadline = opts.deadline;
  }

  NewtonResult result;
  Vector fvec(n), du(n), utrial(n), ftrial(n), rhs(n);

  f.residual(u, fvec);
  Scalar fnorm = fvec.norm2();
  const Scalar fnorm0 = fnorm;
  result.fnorm = fnorm;
  if (opts.monitor) opts.monitor(0, fnorm);
  if (fnorm <= opts.atol) {
    result.converged = true;
    return result;
  }

  static const int ev_jac = prof::registered_event("SNESJacobianEval");
  static const int ev_pc = prof::registered_event("PCSetUp");
  // Snapshot the profiler once: instrumentation stays consistent even if a
  // -log_* switch flips mid-solve.
  prof::Profiler* plog = prof::enabled() ? &prof::current() : nullptr;
  if (plog != nullptr) {
    plog->record_history("SNES(newtonls)", 0.0, fnorm);
  }

  KESTREL_CHECK(opts.pc_lag >= 1, "newton: pc_lag must be >= 1");
  std::unique_ptr<pc::Pc> pc;
  for (int it = 1; it <= opts.max_iterations; ++it) {
    // Kestrel Bastion: cooperative stop between steps — u keeps the last
    // completed iterate, nothing half-applied.
    if (opts.deadline.expired()) {
      result.deadline_exceeded = true;
      return result;
    }
    // Kestrel Aegis: an AbftError out of the KSP means the operator's
    // checksum retry could not clear the corruption — the assembled matrix
    // itself is suspect. Rebuilding it from the user callback replaces the
    // corrupted storage, so the iteration gets exactly one fresh-assembly
    // retry (with a fresh preconditioner) before the error propagates.
    ksp::SolveResult lin;
    int attempt = 0;
    for (bool solved = false; !solved; ++attempt) {
      try {
        if (plog != nullptr) plog->begin(ev_jac);
        const mat::Csr jac = f.jacobian(u);
        const auto op = format_factory(jac);
        if (plog != nullptr) plog->end(ev_jac);
        if (!pc || (it - 1) % opts.pc_lag == 0 || attempt > 0) {
          if (plog != nullptr) plog->begin(ev_pc);
          // Drop the stale preconditioner first, so one hierarchy is alive
          // at a time instead of two.
          pc.reset();
          pc = pc_factory(jac);
          if (plog != nullptr) plog->end(ev_pc);
        }

        // solve J du = -F
        rhs.copy_from(fvec);
        rhs.scale(-1.0);
        du.set(0.0);
        ksp::SeqContext ctx(*op, pc.get());
        // Solver::solve records the "KSPSolve" event itself (with
        // iterations * 2 * nnz flops via SeqContext::operator_nnz).
        lin = solver->solve(ctx, rhs, du);
        solved = true;
      } catch (const AbftError&) {
        if (attempt >= 1) throw;
        aegis::stats().abft_retries++;
        result.abft_retries++;
      }
    }
    if (attempt > 1) aegis::stats().recoveries++;
    result.total_linear_iterations += lin.iterations;
    if (lin.reason == ksp::Reason::kDeadlineExceeded) {
      // Deadline tripped inside the KSP: stop without applying the partial
      // update, so u stays at the last completed Newton iterate.
      result.iterations = it - 1;
      result.deadline_exceeded = true;
      return result;
    }
    if (!lin.converged && lin.reason != ksp::Reason::kDivergedMaxIts) {
      // hard linear failure (NaN/breakdown): stop
      result.iterations = it;
      return result;
    }

    // backtracking line search on ||F||
    Scalar lambda = 1.0;
    Scalar trial_norm = fnorm;
    while (true) {
      utrial.copy_from(u);
      utrial.axpy(lambda, du);
      f.residual(utrial, ftrial);
      trial_norm = ftrial.norm2();
      if (trial_norm <= (1.0 - opts.ls_alpha * lambda) * fnorm ||
          lambda <= opts.ls_min_lambda) {
        break;
      }
      lambda *= 0.5;
    }

    const Scalar dunorm = std::abs(lambda) * du.norm2();
    u.copy_from(utrial);
    fvec.copy_from(ftrial);
    fnorm = trial_norm;
    result.iterations = it;
    result.fnorm = fnorm;
    if (opts.monitor) opts.monitor(it, fnorm);
    if (plog != nullptr) {
      plog->record_history("SNES(newtonls)", static_cast<double>(it), fnorm);
    }

    if (std::isnan(fnorm)) return result;
    if (fnorm <= opts.atol || fnorm <= opts.rtol * fnorm0) {
      result.converged = true;
      return result;
    }
    const Scalar unorm = u.norm2();
    if (dunorm <= opts.stol * std::max(unorm, Scalar{1})) {
      result.converged = true;
      return result;
    }
  }
  return result;
}

mat::Csr fd_jacobian(const NonlinearFunction& f, const Vector& u,
                     Scalar eps) {
  const Index n = f.size();
  Vector up(n), f0(n), f1(n);
  f.residual(u, f0);
  mat::Coo coo(n, n);
  for (Index j = 0; j < n; ++j) {
    up.copy_from(u);
    const Scalar h = eps * std::max(std::abs(u[j]), Scalar{1});
    up[j] += h;
    f.residual(up, f1);
    for (Index i = 0; i < n; ++i) {
      const Scalar d = (f1[i] - f0[i]) / h;
      if (d != 0.0) coo.add(i, j, d);
    }
  }
  return coo.to_csr();
}

}  // namespace kestrel::snes
