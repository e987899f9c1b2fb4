// Figure 10 — "SpMV performance on the supercomputer Theta": total wall
// time of the 16384^2 Gray-Scott run (5 time steps, 6-level multigrid
// GMRES) on 64-512 KNL nodes, CSR baseline vs SELL, across the three
// memory configurations, with the MatMult share broken out (the hatched
// region of the paper's bars).
//
// The cluster itself is modeled (see DESIGN.md); the measured counterpart
// is a full (small) Gray-Scott solve on this host with both formats, run
// through the real TS->Newton->GMRES->MG stack.

#include <algorithm>
#include <cstdio>
#include <thread>

#include "base/options.hpp"
#include "bench_common.hpp"
#include "mat/sell.hpp"
#include "par/pool.hpp"
#include "pc/mg.hpp"
#include "perf/spmv_model.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "ts/theta.hpp"

namespace {

using namespace kestrel;

/// Measured miniature of the paper's run: n x n Gray-Scott, CN dt=1,
/// `steps` steps, MG(levels)-preconditioned GMRES, Jacobian in `fmt`.
/// Returns the run's wall time; `matmult` gets the estimated MatMult time,
/// the sampled Jacobian SpMV scaled by the number of applies.
double run_gray_scott(Index n, int steps, int levels, bool use_sell,
                      bench::Sample* matmult) {
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);

  ts::ThetaOptions opts;
  opts.theta = 0.5;
  opts.dt = 1.0;
  opts.steps = steps;
  opts.newton.rtol = 1e-6;
  opts.newton.ksp.rtol = 1e-6;
  if (use_sell) {
    opts.newton.format_factory = [](const mat::Csr& a) {
      return std::make_shared<const mat::Sell>(a);
    };
  }
  const auto chain = app::gray_scott_interpolation_chain(gs.grid(), levels);
  opts.newton.pc_factory =
      [&chain, use_sell](const mat::Csr& a) -> std::unique_ptr<pc::Pc> {
    pc::Multigrid::Options mg_opts;
    pc::Multigrid::FormatFactory factory;
    if (use_sell) {
      factory = [](const mat::Csr& lvl) {
        return std::make_shared<const mat::Sell>(lvl);
      };
    }
    return std::make_unique<pc::Multigrid>(a, chain, mg_opts, factory);
  };

  const double t0 = wall_time();
  const ts::ThetaResult res = theta_integrate(gs, u, opts);
  const double total = wall_time() - t0;
  if (!res.completed) std::printf("  (warning: run did not complete)\n");
  // MatMult share is re-measured directly: time one Jacobian SpMV and
  // multiply by the linear-iteration count (1 operator apply + MG applies)
  const mat::Csr jac = gs.rhs_jacobian(u);
  const int reps = bench::scaled_reps(5);
  const double secs = bench::scaled_seconds(0.05);
  const bench::Sample t_apply =
      use_sell ? bench::time_spmv(mat::Sell(jac), reps, secs)
               : bench::time_spmv(jac, reps, secs);
  // fine + MG level SpMVs per linear iteration (~1 + 3 smoother/residual
  // applies over a geometric level hierarchy)
  const double applies =
      res.total_linear_iterations * (1.0 + 3.0 * 4.0 / 3.0);
  *matmult = {applies * t_apply.median, applies * t_apply.iqr};
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kestrel;
  using namespace kestrel::perf;
  using simd::IsaTier;

  bench::parse_args(argc, argv);
  Options& opts = Options::global();
  opts.parse(argc, argv);
  const prof::LogConfig logcfg = prof::configure(opts);

  bench::header(
      "Figure 10 (modeled): Gray-Scott 16384^2 on Theta, walltime [s]");
  // Halo-exchange constants come from this host's fabric (the postal-model
  // calibration in EXPERIMENTS.md) instead of the built-in defaults, so the
  // model's comm term tracks the transport actually underneath Kestrel.
  const CommModel cm =
      CommModel::measure_fabric(bench::scaled_reps(50, 6));
  std::printf("halo model: alpha = %.3f us, beta = %.4f ns/byte "
              "(fabric-calibrated)\n",
              cm.alpha_s * 1e6, cm.beta_s_per_byte * 1e9);

  // Kestrel Flock: measure this host's intra-rank SpMV thread scaling on a
  // cache-resident SELL matrix and fold it into the model's compute term
  // (perf::ThreadModel) — the same composition as the comm calibration
  // above: modeled roofline, measured machine constants.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  int flock_threads = par::configured_threads();
  if (flock_threads <= 1) flock_threads = std::min(4, std::max(1, hw));
  ThreadModel flock;
  if (flock_threads > 1) {
    mat::Sell scale_probe(bench::gray_scott_matrix(bench::scaled(96, 48)));
    const std::string saved = opts.get_string("threads", "");
    opts.set("threads", "1");
    scale_probe.repartition(1);
    const int reps = bench::scaled_reps(5);
    const double secs = bench::scaled_seconds(0.05);
    const double t1 = bench::time_spmv(scale_probe, reps, secs).median;
    opts.set("threads", std::to_string(flock_threads));
    scale_probe.repartition(flock_threads);
    const double tn = bench::time_spmv(scale_probe, reps, secs).median;
    opts.set("threads", saved.empty() ? "1" : saved);
    flock.threads = flock_threads;
    flock.efficiency =
        std::min(1.0, std::max(0.05, t1 / (flock_threads * tn)));
    std::printf("flock model: %d threads/rank, measured intra-rank "
                "efficiency %.2f (%.2fx at %d threads)\n",
                flock.threads, flock.efficiency, t1 / tn, flock.threads);
  }
  const MachineProfile knl = knl7230();
  const struct {
    MemoryMode mode;
    const char* label;
  } modes[] = {{MemoryMode::kFlatDram, "flat mode using DRAM only"},
               {MemoryMode::kCache, "cache mode"},
               {MemoryMode::kFlatMcdram, "flat mode"}};
  for (const auto& m : modes) {
    std::printf("\n-- %s --\n", m.label);
    std::printf("%8s %18s %18s %12s %12s\n", "nodes", "CSR total(MatMult)",
                "SELL total(MatMult)", "speedup", "MatMult x");
    for (int nodes : {64, 128, 256, 512}) {
      const auto csr = modeled_multinode(knl, m.mode, nodes,
                                         ModelFormat::kCsrBaseline,
                                         IsaTier::kScalar, 16384, 5, 6, &cm);
      const auto sell = modeled_multinode(knl, m.mode, nodes,
                                          ModelFormat::kSell,
                                          IsaTier::kAvx512, 16384, 5, 6, &cm);
      std::printf("%8d %10.1f (%5.1f) %10.1f (%5.1f) %11.2fx %11.2fx\n",
                  nodes, csr.total_seconds, csr.matmult_seconds,
                  sell.total_seconds, sell.matmult_seconds,
                  csr.total_seconds / sell.total_seconds,
                  csr.matmult_seconds / sell.matmult_seconds);
    }
  }
  std::printf(
      "\nExpected shape (paper): ~2x MatMult speedup for SELL in cache and\n"
      "flat(MCDRAM) modes translating into a visible total-time drop; only\n"
      "marginal improvement when restricted to DRAM; non-MatMult time is\n"
      "format independent.\n");

  if (flock.threads > 1) {
    std::printf("\n-- flat mode, SELL/AVX-512 with Flock in-rank threading "
                "(measured efficiency in t_cpu) --\n");
    std::printf("%8s %18s %18s %12s\n", "nodes", "serial total(MatMult)",
                "flock total(MatMult)", "MatMult x");
    for (int nodes : {64, 128, 256, 512}) {
      const auto serial = modeled_multinode(knl, MemoryMode::kFlatMcdram,
                                            nodes, ModelFormat::kSell,
                                            IsaTier::kAvx512, 16384, 5, 6,
                                            &cm);
      const auto threaded = modeled_multinode(knl, MemoryMode::kFlatMcdram,
                                              nodes, ModelFormat::kSell,
                                              IsaTier::kAvx512, 16384, 5, 6,
                                              &cm, &flock);
      std::printf("%8d %10.1f (%5.1f) %10.1f (%5.1f) %11.2fx\n", nodes,
                  serial.total_seconds, serial.matmult_seconds,
                  threaded.total_seconds, threaded.matmult_seconds,
                  serial.matmult_seconds / threaded.matmult_seconds);
    }
    std::printf("(t_mem is node-saturated, so threads only move the "
                "compute side of the roofline — the MCDRAM columns barely "
                "change where SpMV is bandwidth-bound.)\n");
  }

  bench::header(
      "Figure 10 (measured): full solver stack on this host (miniature)");
  std::printf("Gray-Scott 64x64, 2 steps, 3-level MG-GMRES, CN dt=1\n\n");
  const Index mini_n = bench::scaled(64, 16);
  const int mini_steps = bench::scaled_reps(2, 1);
  bench::Sample mm_csr, mm_sell;
  const double t_csr = run_gray_scott(mini_n, mini_steps, 3, false, &mm_csr);
  const double t_sell = run_gray_scott(mini_n, mini_steps, 3, true, &mm_sell);
  std::printf("%-14s %10s %18s %6s\n", "format", "total [s]",
              "est. MatMult [s]", "IQR");
  std::printf("%-14s %10.3f %18.3f %s\n", "CSR baseline", t_csr,
              mm_csr.median, bench::spread(mm_csr).c_str());
  std::printf("%-14s %10.3f %18.3f %s\n", "SELL", t_sell, mm_sell.median,
              bench::spread(mm_sell).c_str());
  std::printf("MatMult speedup (SELL vs CSR): %.2fx\n",
              mm_csr.median / mm_sell.median);

  if (logcfg.any()) {
    // Machine-readable results for the figure scripts: measured walltimes
    // as named metrics alongside the full event table in one JSON dump.
    prof::Profiler& p = prof::current();
    p.set_metric("fig10_measured_total_csr_s", t_csr);
    p.set_metric("fig10_measured_total_sell_s", t_sell);
    p.set_metric("fig10_measured_matmult_csr_s", mm_csr.median);
    p.set_metric("fig10_measured_matmult_sell_s", mm_sell.median);
    p.set_metric("fig10_measured_matmult_speedup",
                 mm_csr.median / mm_sell.median);
    p.set_metric("fig10_flock_threads",
                 static_cast<double>(flock.threads));
    p.set_metric("fig10_flock_efficiency", flock.efficiency);
    prof::export_all(logcfg, p);
  }
  return 0;
}
