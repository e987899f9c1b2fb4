// The paper's evaluation problem end to end: Gray-Scott reaction-diffusion
// on a periodic 2D grid, Crank-Nicolson time stepping, Newton, and
// multigrid-preconditioned GMRES whose operators live in the matrix format
// under test. Mirrors src/ts/examples/.../ex5adj.c from PETSc plus the
// options the paper lists:
//
//   ./gray_scott [-n 128] [-steps 5] [-mat_type sell|csr]
//                [-mat_scalar fp64|fp32]
//                [-pc_mg_levels 3] [-ksp_type gmres] [-spmv_isa avx512]
//                [-aegis_checkpoint_every 5] [-aegis_max_rollbacks 2]
//                [-ksp_breakdown_recovery]
//                [-log_view] [-log_trace trace.json] [-log_json metrics.json]

#include <cstdio>
#include <sstream>

#include "app/gray_scott.hpp"
#include "base/options.hpp"
#include "mat/sell.hpp"
#include "mat/slim.hpp"
#include "pc/mg.hpp"
#include "perf/spmv_model.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "ts/theta.hpp"

using namespace kestrel;

int main(int argc, char** argv) {
  Options& opts = Options::global();
  opts.parse(argc, argv);
  const prof::LogConfig logcfg = prof::configure(opts);
  const Index n = opts.get_index("n", 128);
  const int steps = opts.get_index("steps", 5);
  const int levels = opts.get_index("pc_mg_levels", 3);
  const std::string mat_type = opts.get_string("mat_type", "sell");
  const bool use_sell = mat_type == "sell";

  app::GrayScott gs(n);
  std::printf("Gray-Scott %dx%d grid, %d dof, dt=1 Crank-Nicolson, "
              "%d steps\n", n, n, gs.size(), steps);
  std::printf("solver: %s + %d-level MG (Jacobi smoothing), Jacobian in "
              "%s format, ISA %s\n",
              opts.get_string("ksp_type", "gmres").c_str(), levels,
              mat_type.c_str(), simd::tier_name(simd::default_tier()));

  Vector u;
  gs.initial_condition(u);

  ts::ThetaOptions topts;
  topts.theta = 0.5;
  topts.dt = 1.0;
  topts.steps = steps;
  topts.newton.rtol = 1e-8;
  topts.newton.ksp_type = opts.get_string("ksp_type", "gmres");
  topts.newton.ksp.rtol = opts.get_scalar("ksp_rtol", 1e-6);
  topts.newton.pc_lag = opts.get_index("snes_lag_preconditioner", 1);
  topts.newton.ksp.breakdown_recovery =
      opts.get_bool("ksp_breakdown_recovery", false);
  topts.newton.ksp.max_restarts =
      static_cast<int>(opts.get_index("ksp_max_restarts", 1));
  // Kestrel Aegis: checkpoint every k steps and rewind on a failed step.
  topts.checkpoint_every =
      static_cast<int>(opts.get_index("aegis_checkpoint_every", 0));
  topts.max_rollbacks =
      static_cast<int>(opts.get_index("aegis_max_rollbacks", 2));

  if (use_sell) {
    topts.newton.format_factory = [](const mat::Csr& a) {
      return std::make_shared<const mat::Sell>(a);
    };
  }
  // Kestrel Slim: -mat_scalar fp32 stores the multigrid level operators'
  // values in fp32 (widened on load, accumulated in double). GMRES keeps
  // multiplying the double Jacobian, so only the preconditioner works on a
  // float-rounded operator and the Newton/GMRES iteration counts hold.
  const mat::SlimOptions slim = mat::slim_options_from(opts);
  const auto chain = app::gray_scott_interpolation_chain(gs.grid(), levels);
  topts.newton.pc_factory = [&chain, use_sell, slim](const mat::Csr& a)
      -> std::unique_ptr<pc::Pc> {
    pc::Multigrid::Options mg_opts;
    const pc::Multigrid::FormatFactory factory =
        [use_sell, slim](const mat::Csr& lvl) -> mat::MatrixPtr {
      std::shared_ptr<mat::Matrix> op;
      if (use_sell) {
        op = std::make_shared<mat::Sell>(lvl);
      } else {
        op = std::make_shared<mat::Csr>(lvl);
      }
      op->set_slim(slim);
      return op;
    };
    return std::make_unique<pc::Multigrid>(a, chain, mg_opts, factory);
  };
  topts.monitor = [&](int step, Scalar t, const Vector& state) {
    Scalar vmass = 0.0;
    for (Index j = 0; j < n; ++j) {
      for (Index i = 0; i < n; ++i) vmass += gs.v_at(state, i, j);
    }
    std::printf("  step %3d  t=%6.1f  total v = %10.4f\n", step, t, vmass);
  };

  const double t0 = wall_time();
  const ts::ThetaResult res = theta_integrate(gs, u, topts);
  const double elapsed = wall_time() - t0;

  std::printf("\n%s after %d steps (t = %.1f)%s\n",
              res.completed ? "completed" : "FAILED", res.steps_taken,
              res.final_time,
              res.rollbacks > 0 ? " [with Aegis rollbacks]" : "");
  std::printf("Newton iterations: %d | linear iterations: %d\n",
              res.total_newton_iterations, res.total_linear_iterations);
  std::printf("wall time: %.3f s\n", elapsed);

  if (logcfg.any()) {
    // Carry the section 6 model's per-SpMV traffic prediction into the
    // metrics dump so figure scripts plot measured vs model side by side.
    prof::Profiler& p = prof::current();
    const perf::SpmvWorkload wl = perf::SpmvWorkload::gray_scott(n);
    p.set_metric("model_spmv_traffic_bytes",
                 static_cast<double>(wl.traffic_bytes(
                     use_sell ? perf::ModelFormat::kSell
                              : perf::ModelFormat::kCsrBaseline)));
    // The measured average spans every SpMV of that format, including the
    // smaller MG coarse-level operators, so it sits below the fine-level
    // model; the strict fine-grid-only comparison is tests/prof_test.cpp.
    const int ev = prof::registered_event(use_sell ? "MatMult(sell)"
                                                   : "MatMult(csr)");
    if (p.calls(ev) > 0) {
      p.set_metric("measured_spmv_bytes_per_call_all_levels",
                   static_cast<double>(p.bytes(ev)) /
                       static_cast<double>(p.calls(ev)));
    }
    prof::export_all(logcfg, p);
  }
  // Every component has read its options by now: report the ones nobody
  // read.
  for (const std::string& w : opts.unknown_option_warnings()) {
    std::fprintf(stderr, "%s\n", w.c_str());
  }
  return res.completed ? 0 : 1;
}
