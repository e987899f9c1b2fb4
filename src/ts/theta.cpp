#include "ts/theta.hpp"

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "mat/spgemm.hpp"
#include "prof/profiler.hpp"

namespace kestrel::ts {

namespace {

/// Nonlinear stage problem for one theta step.
class ThetaStage final : public snes::NonlinearFunction {
 public:
  ThetaStage(const RhsFunction& f, const Vector& u_old, Scalar theta,
             Scalar dt)
      : f_(f), u_old_(u_old), theta_(theta), dt_(dt), fwork_(f.size()) {
    // explicit part: u_old + dt*(1-theta)*f(u_old)
    explicit_.resize(f.size());
    f_.rhs(u_old_, explicit_);
    explicit_.scale(dt_ * (1.0 - theta_));
    explicit_.axpy(1.0, u_old_);
  }

  Index size() const override { return f_.size(); }

  void residual(const Vector& u, Vector& g) const override {
    f_.rhs(u, fwork_);
    g.resize(size());
    for (Index i = 0; i < size(); ++i) {
      g[i] = u[i] - dt_ * theta_ * fwork_[i] - explicit_[i];
    }
  }

  mat::Csr jacobian(const Vector& u) const override {
    // G'(u) = I - dt*theta*J_f(u), formed in J_f's own storage whenever
    // J_f stores its whole diagonal (bitwise the same as the add() path).
    mat::Csr jf = f_.rhs_jacobian(u);
    KESTREL_CHECK(jf.rows() == size() && jf.cols() == size(),
                  "theta: Jacobian size mismatch");
    if (mat::shift_identity_in_place(-dt_ * theta_, jf)) return jf;
    return mat::add(1.0, mat::identity(size()), -dt_ * theta_, jf);
  }

 private:
  const RhsFunction& f_;
  const Vector& u_old_;
  Scalar theta_, dt_;
  Vector explicit_;
  mutable Vector fwork_;
};

}  // namespace

ThetaResult theta_integrate(const RhsFunction& f, Vector& u,
                            const ThetaOptions& opts) {
  KESTREL_CHECK(u.size() == f.size(), "theta: state size mismatch");
  KESTREL_CHECK(opts.theta > 0.0 && opts.theta <= 1.0,
                "theta: implicit weight must be in (0, 1]");
  KESTREL_CHECK(opts.dt > 0.0 && opts.steps >= 0, "theta: bad step setup");

  KESTREL_CHECK(opts.checkpoint_every >= 0 && opts.max_rollbacks >= 0,
                "theta: bad checkpoint setup");

  ThetaResult result;
  Vector u_old(f.size());

  // Kestrel Aegis checkpointing: u_ckpt holds the state after step
  // ckpt_step; on a failed step the loop rewinds there and replays.
  const bool checkpointing = opts.checkpoint_every > 0;
  Vector u_ckpt;
  int ckpt_step = 0;
  if (checkpointing) {
    u_ckpt.resize(f.size());
    u_ckpt.copy_from(u);
  }

  // Kestrel Bastion: the integration deadline also bounds every nested
  // Newton (and transitively its KSP), unless the caller armed a tighter
  // per-step token already.
  snes::NewtonOptions newton_opts = opts.newton;
  if (opts.deadline.active() && !newton_opts.deadline.active()) {
    newton_opts.deadline = opts.deadline;
  }

  static const int ev_step = prof::registered_event("TSStep");
  for (int step = 1; step <= opts.steps; ++step) {
    // Kestrel Bastion: cooperative stop between steps — u holds the state
    // after the last completed step.
    if (opts.deadline.expired()) {
      result.completed = false;
      result.deadline_exceeded = true;
      return result;
    }
    // One profiler event per time step (nested SNESSolve/KSPSolve events
    // break it down); RAII keeps begin/end paired across rollback paths.
    prof::ScopedEvent step_scope(ev_step);
    u_old.copy_from(u);
    ThetaStage stage(f, u_old, opts.theta, opts.dt);
    // warm start from the previous state
    snes::NewtonResult newton;
    bool step_failed = false;
    try {
      newton = snes::newton_solve(stage, u, newton_opts);
      step_failed = !newton.converged;
    } catch (const AbftError&) {
      if (!checkpointing || result.rollbacks >= opts.max_rollbacks) throw;
      step_failed = true;
    }
    result.total_newton_iterations += newton.iterations;
    result.total_linear_iterations += newton.total_linear_iterations;
    if (newton.deadline_exceeded) {
      // Half-finished step: rewind to the step entry state so u reflects
      // exactly steps_taken completed steps, then stop.
      u.copy_from(u_old);
      result.completed = false;
      result.deadline_exceeded = true;
      return result;
    }
    if (step_failed) {
      if (!checkpointing || result.rollbacks >= opts.max_rollbacks) {
        result.completed = false;
        return result;
      }
      result.rollbacks++;
      aegis::stats().rollbacks++;
      u.copy_from(u_ckpt);
      step = ckpt_step;  // the for-increment replays ckpt_step + 1 next
      continue;
    }
    result.steps_taken = step;
    result.final_time = step * opts.dt;
    if (opts.monitor) opts.monitor(step, result.final_time, u);
    if (prof::enabled()) {
      prof::current().record_history("TS(theta) newton_its",
                                     result.final_time,
                                     static_cast<double>(newton.iterations));
    }
    if (checkpointing && step % opts.checkpoint_every == 0) {
      u_ckpt.copy_from(u);
      ckpt_step = step;
    }
  }
  result.completed = true;
  if (result.rollbacks > 0) aegis::stats().recoveries++;
  return result;
}

}  // namespace kestrel::ts
