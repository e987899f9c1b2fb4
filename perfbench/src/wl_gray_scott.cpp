// gray_scott: the paper's end-to-end problem. Crank–Nicolson steps of the
// Gray–Scott system at n=256 (131,072 dof), Newton with the Jacobian in
// SELL, GMRES preconditioned by 3-level multigrid with SELL level
// operators — the examples/gray_scott stack. One operation is an episode
// of kSteps steps from a fresh seeded initial condition.

#include <memory>

#include "app/gray_scott.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "mat/sell.hpp"
#include "pc/mg.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kestrel;

constexpr int kSteps = 3;
constexpr int kLevels = 3;
constexpr double kTheta = 0.5;
constexpr double kDt = 1.0;

struct Problem {
  std::unique_ptr<app::GrayScott> gs;
  Vector u0;
  std::vector<mat::Csr> chain;
};

/// The set-up a user pays once: problem, initial condition, MG
/// interpolation chain.
Problem build_problem(Index n, std::uint64_t seed) {
  Problem p;
  p.gs = std::make_unique<app::GrayScott>(n);
  p.u0 = seeded_initial_condition(*p.gs, seed);
  p.chain = app::gray_scott_interpolation_chain(p.gs->grid(), kLevels);
  return p;
}

ts::ThetaOptions solver_options(const std::vector<mat::Csr>& chain,
                                bool traced) {
  ts::ThetaOptions o;
  o.theta = kTheta;
  o.dt = kDt;
  o.steps = kSteps;
  o.newton.rtol = 1e-8;
  o.newton.ksp_type = "gmres";
  o.newton.ksp.rtol = 1e-6;
  o.newton.pc_lag = 1;
  pc::Multigrid::FormatFactory convert;
  if (traced) {
    convert = [](const mat::Csr& a) -> mat::MatrixPtr {
      trace::Scope s("mat.convert");
      return std::make_shared<const TracedMatrix>(
          std::make_shared<const mat::Sell>(a), "mat.spmv");
    };
  } else {
    convert = [](const mat::Csr& a) -> mat::MatrixPtr {
      return std::make_shared<const mat::Sell>(a);
    };
  }
  o.newton.format_factory = convert;
  o.newton.pc_factory = [&chain, convert,
                         traced](const mat::Csr& a)
      -> std::unique_ptr<pc::Pc> {
    if (!traced) {
      return std::make_unique<pc::Multigrid>(a, chain,
                                             pc::Multigrid::Options{},
                                             convert);
    }
    trace::Scope s("pc.setup");
    return std::make_unique<TracedPc>(std::make_unique<pc::Multigrid>(
        a, chain, pc::Multigrid::Options{}, convert));
  };
  return o;
}

/// Crank–Nicolson residual G(u1) = u1 - u0 - dt[theta f(u1) + (1-theta)
/// f(u0)], recomputed with GrayScott::rhs. Newton stops at ||G|| <= 1e-8
/// ||G(u0)|| with G(u0) = -dt f(u0); the check allows ten times that.
bool step_residual_ok(const app::GrayScott& gs, const Vector& u0,
                      const Vector& u1) {
  Vector f0(gs.size()), f1(gs.size());
  gs.rhs(u0, f0);
  gs.rhs(u1, f1);
  Vector g(gs.size());
  for (Index i = 0; i < gs.size(); ++i) {
    g[i] = u1[i] - u0[i] - kDt * (kTheta * f1[i] + (1.0 - kTheta) * f0[i]);
  }
  const double f0_norm = kDt * norm2(f0.data(), f0.size());
  return norm2(g.data(), g.size()) <= 1e-7 * f0_norm + 1e-11;
}

}  // namespace

void run_gray_scott(const Args& args, Result& out) {
  const Index n = args.smoke ? 64 : 256;
  const int setup_reps = args.smoke ? 3 : 9;

  std::vector<double> setup_s;
  for (int r = -1; r < setup_reps; ++r) {  // r = -1: warm-up, not counted
    const double t0 = now_s();
    const Problem p = build_problem(n, args.seed);
    if (r >= 0) setup_s.push_back(now_s() - t0);
  }
  const Problem prob = build_problem(n, args.seed);
  const app::GrayScott& gs = *prob.gs;
  const TracedRhs traced_rhs(gs);

  std::vector<Vector> states;
  int step_token = -1;
  auto make_opts = [&](bool traced) {
    ts::ThetaOptions o = solver_options(prob.chain, traced);
    o.monitor = [&states, &step_token](int step, Scalar, const Vector& u) {
      states.push_back(u);
      trace::end(step_token);
      step_token = step < kSteps ? trace::begin("ts.step") : -1;
    };
    return o;
  };
  const ts::ThetaOptions plain_opts = make_opts(false);
  const ts::ThetaOptions traced_opts = make_opts(true);

  // In the traced run even episodes record spans and odd ones do not, so
  // the two medians give the tracing overhead on the same host phase.
  std::vector<double> episode_ms, traced_ms, untraced_ms;
  std::vector<std::int64_t> traced_ops;
  std::vector<double> newton_its, linear_its;
  std::int64_t plain_faults = 0;
  const double t_end = now_s() + args.seconds;
  for (int ep = 0; ep < 3 || now_s() < t_end; ++ep) {
    const bool traced = args.trace && ep % 2 == 0;
    Vector u(prob.u0.size());
    u.copy_from(prob.u0);
    states.clear();
    states.push_back(prob.u0);
    const Rusage ru0 = rusage_self();
    trace::set_on(traced);
    trace::set_thread_op(ep);
    const int ep_token = trace::begin("gs.episode");
    step_token = trace::begin("ts.step");
    const double t0 = now_s();
    const ts::ThetaResult res =
        traced ? ts::theta_integrate(traced_rhs, u, traced_opts)
               : ts::theta_integrate(gs, u, plain_opts);
    const double ms = (now_s() - t0) * 1e3;
    trace::end(step_token);
    trace::end(ep_token);
    trace::set_on(false);

    episode_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    if (traced) {
      traced_ops.push_back(ep);
    } else {
      plain_faults += rusage_self().minor_faults - ru0.minor_faults;
    }
    newton_its.push_back(res.total_newton_iterations);
    linear_its.push_back(res.total_linear_iterations);
    out.check(res.completed && res.steps_taken == kSteps &&
                  static_cast<int>(states.size()) == kSteps + 1,
              "episode " + std::to_string(ep) + " did not complete");
    for (std::size_t s = 1; s < states.size(); ++s) {
      out.check(step_residual_ok(gs, states[s - 1], states[s]),
                "episode " + std::to_string(ep) + " step " +
                    std::to_string(s) + ": Crank-Nicolson residual");
    }
  }

  const std::vector<double>& e2e_ms = args.trace ? untraced_ms : episode_ms;
  const auto neps = static_cast<std::int64_t>(e2e_ms.size());
  out.e2e.push_back({"setup_s", median(setup_s), "s",
                     static_cast<std::int64_t>(setup_s.size())});
  out.e2e.push_back({"latency_p50_ms", median(e2e_ms), "ms", neps});
  out.named.push_back({"solve_s", median(e2e_ms) * 1e-3, "s", neps});
  out.named.push_back({"snes.newton_its", median(newton_its), "count",
                       static_cast<std::int64_t>(newton_its.size())});
  out.named.push_back({"ksp.linear_its", median(linear_its), "count",
                       static_cast<std::int64_t>(linear_its.size())});
  if (!args.trace) return;

  const std::vector<Span> spans = trace::collect();
  const auto nops = static_cast<std::int64_t>(traced_ops.size());
  const LayerStats steps = layer_stats(spans, "ts.step");
  out.layer.push_back({"ts.step_ms", median(steps.durations_ms), "ms",
                       static_cast<std::int64_t>(steps.durations_ms.size())});
  struct PerOp {
    const char* span;
    const char* ms_metric;
    const char* calls_metric;
  };
  const PerOp per_op[] = {
      {"app.jacobian", "app.jacobian_ms", "app.jacobian_calls"},
      {"app.rhs", "app.rhs_ms", "app.rhs_calls"},
      {"mat.convert", "mat.convert_ms", "mat.convert_calls"},
      {"pc.setup", "pc.setup_ms", "pc.setup_calls"},
      {"pc.apply", "pc.apply_ms", "pc.apply_calls"},
      {"mat.spmv", "mat.spmv_ms", nullptr},
  };
  for (const PerOp& p : per_op) {
    out.layer.push_back({p.ms_metric,
                         median(per_op_total_ms(spans, p.span, traced_ops)),
                         "ms", nops});
    if (p.calls_metric != nullptr) {
      out.layer.push_back({p.calls_metric,
                           median(per_op_count(spans, p.span, traced_ops)),
                           "count", nops});
    }
  }
  const LayerStats spmv = layer_stats(spans, "mat.spmv");
  out.layer.push_back({"mat.spmv_gbs",
                       spmv.total_bytes / (spmv.total_ms * 1e-3) / 1e9,
                       "GB/s",
                       static_cast<std::int64_t>(spmv.durations_ms.size())});
  // Faults are counted on untraced episodes: span buffers fault too.
  out.layer.push_back({"mem.minor_faults_per_step",
                       static_cast<double>(plain_faults) /
                           static_cast<double>(kSteps * neps),
                       "count", neps});
  out.layer.push_back({"snes.newton_its", median(newton_its), "count",
                       static_cast<std::int64_t>(newton_its.size())});
  out.layer.push_back({"ksp.linear_its", median(linear_its), "count",
                       static_cast<std::int64_t>(linear_its.size())});
  out.layer.push_back({"ksp.its_per_solve",
                       median(linear_its) / median(newton_its), "count",
                       static_cast<std::int64_t>(linear_its.size())});
  out.layer.push_back({"trace.overhead_pct",
                       100.0 * (median(traced_ms) / median(untraced_ms) - 1.0),
                       "%", static_cast<std::int64_t>(episode_ms.size())});
  out.layer.push_back({"trace.unattributed_pct",
                       100.0 * self_ms(spans, "ts.step") / steps.total_ms,
                       "%", static_cast<std::int64_t>(steps.durations_ms.size())});
  finish_trace(args, spans, out);
}

}  // namespace perfbench
