// Distributed SpMV and solve on the in-process message fabric: shows the
// paper's parallel layout (diagonal block + compressed off-diagonal block,
// section 2.1/2.2) and runs the same CG code that works sequentially on a
// rank-distributed system with allreduced dot products.
//
// Kestrel Aegis flags: -aegis_faults injects transport faults from a
// deterministic spec (see src/aegis/fault.hpp for the grammar), -aegis_abft
// turns on checksummed SpMV verification, and -ksp_breakdown_recovery lets
// the solver restart across breakdowns. Aegis counters flow into -log_json
// through the profiler metrics.
//
//   ./parallel_spmv [-ranks 4] [-n 64] [-mat_type sell|csr]
//                   [-threads N]
//                   [-aegis_faults "seed=42,drop=0.05"] [-aegis_abft]
//                   [-aegis_abft_tol 1e-8] [-ksp_breakdown_recovery]
//                   [-ksp_max_restarts 1]
//                   [-log_view] [-log_trace trace.json] [-log_json m.json]
//                   [-log_hwc]
//
// -log_hwc (Kestrel Pulse) samples hardware counters (cycles, instructions,
// LLC misses, DRAM bytes) around every profiler span; on hosts without
// perf-event access it degrades to modeled bytes with a single warning.

#include <cstdio>

#include "aegis/fault.hpp"
#include "app/laplacian.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "par/parmat.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"

using namespace kestrel;

int main(int argc, char** argv) {
  Options::global().parse(argc, argv);
  const prof::LogConfig logcfg = prof::configure(Options::global());
  if (logcfg.hwc) {
    std::printf("hwc: measured counters on (source %s)\n",
                prof::hwc::source_name(prof::hwc::source()));
  }
  const int nranks = Options::global().get_index("ranks", 4);
  const Index n = Options::global().get_index("n", 64);
  const std::string mat_type =
      Options::global().get_string("mat_type", "sell");
  const std::string fault_spec =
      Options::global().get_string("aegis_faults", "");
  const bool abft = Options::global().get_bool("aegis_abft", false);

  const mat::Csr global = app::laplacian_dirichlet(n, n);
  std::printf("global matrix: %d x %d, %lld nnz, %d ranks, "
              "%d threads/rank\n",
              global.rows(), global.cols(),
              static_cast<long long>(global.nnz()), nranks,
              par::configured_threads());

  auto layout =
      std::make_shared<par::Layout>(par::Layout::even(global.rows(), nranks));

  par::FabricOptions fabric;  // env defaults (KESTREL_AEGIS et al.)
  if (!fault_spec.empty()) {
    fabric.faults = aegis::FaultPlan::parse(fault_spec);
    std::printf("aegis: fault plan \"%s\" active\n", fault_spec.c_str());
  }

  par::Fabric::run(nranks, fabric, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.diag_format = par::parse_diag_format(mat_type);
    opts.abft = abft;
    opts.abft_tol = Options::global().get_scalar("aegis_abft_tol", 1e-8);
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, opts);

    if (comm.rank() == 0) {
      std::printf("rank 0: %d local rows, diag format %s, "
                  "%d ghost columns, offdiag %d nonzero rows%s\n",
                  a.local_rows(), a.diag_block().format_name().c_str(),
                  a.num_ghosts(), a.offdiag_block().rows(),
                  abft ? ", abft on" : "");
    }
    comm.barrier();

    // distributed SpMV: y = A * 1
    par::ParVector x(layout, comm.rank()), y(layout, comm.rank());
    x.local().set(1.0);
    a.spmv(x, y, comm);
    const Scalar ynorm = y.norm2(comm);
    if (comm.rank() == 0) {
      std::printf("||A*1||_2 = %.6f (collective norm)\n", ynorm);
    }

    // distributed CG solve of A u = b
    par::ParVector b(layout, comm.rank());
    b.local().set(1.0);
    Vector u(a.local_rows());
    ksp::Settings settings;
    settings.rtol = 1e-8;
    settings.breakdown_recovery =
        Options::global().get_bool("ksp_breakdown_recovery", false);
    settings.max_restarts = static_cast<int>(
        Options::global().get_index("ksp_max_restarts", 1));
    const ksp::Cg cg(settings);
    ksp::ParContext ctx(a, comm);
    const ksp::SolveResult res = cg.solve(ctx, b.local(), u);
    if (comm.rank() == 0) {
      std::printf("distributed CG: %s in %d iterations, residual %.3e"
                  " (%d restarts)\n",
                  res.converged ? "converged" : "FAILED", res.iterations,
                  res.residual_norm, res.restarts);
    }

    // Collective: totals the fabric counters into `fabric/...` metrics and
    // the Aegis fault-tolerance counters into `aegis/...` metrics, then
    // reduces per-rank profilers (min/max/ratio) and, on rank 0, prints
    // the table / writes the trace and metrics files.
    comm.publish_stats_metrics();
    prof::export_all(logcfg, prof::current(), &comm);

    if (comm.rank() == 0 && (!fault_spec.empty() || abft)) {
      const aegis::AegisStats& st = aegis::stats();
      std::printf(
          "aegis: %llu faults injected, %llu retries, %llu checksum "
          "failures, %llu abft verifications, %llu abft failures, "
          "%llu recoveries\n",
          static_cast<unsigned long long>(st.faults_injected.load()),
          static_cast<unsigned long long>(st.retries.load()),
          static_cast<unsigned long long>(st.checksum_failures.load()),
          static_cast<unsigned long long>(st.abft_verifications.load()),
          static_cast<unsigned long long>(st.abft_failures.load()),
          static_cast<unsigned long long>(st.recoveries.load()));
    }
  });
  // Every component has read its options by now: report the ones nobody
  // read.
  for (const std::string& w : Options::global().unknown_option_warnings()) {
    std::fprintf(stderr, "%s\n", w.c_str());
  }
  return 0;
}
