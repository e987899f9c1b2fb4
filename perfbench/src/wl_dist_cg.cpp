// dist_cg: unpreconditioned CG on the 2-D 5-point Dirichlet Laplacian over
// two fabric ranks — SELL diagonal block, compressed-CSR off-diagonal
// block, persistent ghost exchange. One operation is one solve from a
// seeded right-hand side; its time is the slower rank's.

#include <algorithm>
#include <array>
#include <map>
#include <memory>

#include "app/laplacian.hpp"
#include "base/rng.hpp"
#include "ksp/ksp.hpp"
#include "layers.hpp"
#include "par/comm.hpp"
#include "par/parmat.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kestrel;

constexpr int kRanks = 2;
constexpr double kRtol = 1e-8;

par::FabricOptions fabric_options() {
  par::FabricOptions fo;
  fo.check = false;
  fo.faults = nullptr;
  return fo;
}

par::ParMatrixOptions matrix_options() {
  par::ParMatrixOptions o;
  o.diag_format = par::DiagFormat::kSell;
  o.offdiag_format = par::OffdiagFormat::kCompressedCsr;
  o.persistent_ghosts = true;
  o.threads = 1;
  return o;
}

/// Adds the fabric counters that moved between `before` and `after`.
void add_delta(par::FabricStats& acc, const par::FabricStats& after,
               const par::FabricStats& before) {
  acc.mailbox_msgs += after.mailbox_msgs - before.mailbox_msgs;
  acc.mailbox_allocs += after.mailbox_allocs - before.mailbox_allocs;
  acc.payload_copies += after.payload_copies - before.payload_copies;
  acc.channel_sends += after.channel_sends - before.channel_sends;
  acc.send_parks += after.send_parks - before.send_parks;
  acc.wait_any_calls += after.wait_any_calls - before.wait_any_calls;
  acc.wait_any_wakeups += after.wait_any_wakeups - before.wait_any_wakeups;
}

/// ksp::LinearContext over ParMatrix::spmv_local and Comm::allreduce. While
/// tracing, each call is a span and the fabric counters that move during
/// operator applications are summed.
class TracedParContext final : public ksp::LinearContext {
 public:
  TracedParContext(const par::ParMatrix& a, par::Comm& comm)
      : a_(a), comm_(comm) {}
  Index local_size() const override { return a_.local_rows(); }
  std::int64_t operator_nnz() const override { return a_.local_nnz(); }
  void apply_operator(const Vector& x, Vector& y) override {
    if (!trace::on()) {
      a_.spmv_local(x.data(), y, comm_);
      return;
    }
    const par::FabricStats before = comm_.stats();
    const int tok = trace::begin("par.spmv");
    a_.spmv_local(x.data(), y, comm_);
    trace::end(tok);
    add_delta(spmv_stats, comm_.stats(), before);
    ++spmv_calls;
  }
  Scalar dot(const Vector& a, const Vector& b) override {
    const Scalar local = a.dot(b);
    const int tok = trace::begin("par.allreduce");
    const Scalar global = comm_.allreduce(local, par::Comm::ReduceOp::kSum);
    trace::end(tok);
    return global;
  }

  std::int64_t spmv_calls = 0;      ///< traced operator applications
  par::FabricStats spmv_stats{};    ///< fabric counters over those calls

 private:
  const par::ParMatrix& a_;
  par::Comm& comm_;
};

std::uint64_t solve_seed(std::uint64_t seed, int k) {
  return seed * 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(k);
}

struct CgRun {
  std::vector<double> solve_ms;  ///< slower rank's time per solve
  std::vector<int> iterations;
  std::vector<char> traced;
  std::int64_t verified = 0;
  std::vector<std::string> failures;
  std::array<par::FabricStats, kRanks> spmv_stats{};  ///< traced MatMults
  std::array<std::int64_t, kRanks> spmv_calls{};
  double local_spmv_ms = 0.0;  ///< diagonal block alone, slower rank
};

/// Solves until `seconds` have passed and at least `min_solves` are done,
/// or exactly `max_solves` when that is positive. Rank 0 decides; the
/// decision is allreduced so both ranks run the same solves. Every
/// solution is gathered and its residual recomputed with a serial CSR
/// product on rank 0, outside the timed region.
CgRun run_solves(const mat::Csr& global, std::uint64_t seed, double seconds,
                 int min_solves, int max_solves, bool trace_even) {
  const auto layout = std::make_shared<const par::Layout>(
      par::Layout::even(global.rows(), kRanks));
  CgRun run;
  par::Fabric::run(kRanks, fabric_options(), [&](par::Comm& comm) {
    const int rank = comm.rank();
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, matrix_options());
    TracedParContext ctx(a, comm);
    ksp::Settings settings;
    settings.rtol = kRtol;
    settings.max_iterations = 100000;
    const ksp::Cg cg(settings);
    const Index lo = layout->begin(rank);
    const Index nloc = layout->local_size(rank);
    Vector b(nloc), x(nloc), y(nloc);
    // Opens the persistent exchange before the measured phase.
    ctx.apply_operator(x, y);

    const double t_end = now_s() + seconds;
    for (int k = 0;; ++k) {
      double go = 0.0;
      if (rank == 0) {
        go = max_solves > 0 ? (k < max_solves)
                            : (k < min_solves || now_s() < t_end);
      }
      if (comm.allreduce(go, par::Comm::ReduceOp::kMax) == 0.0) break;
      const bool traced = trace_even && k % 2 == 0;
      const std::vector<double> b_global =
          make_rhs(solve_seed(seed, k), global.rows());
      for (Index i = 0; i < nloc; ++i) b[i] = b_global[static_cast<std::size_t>(lo + i)];
      x.set(0.0);

      comm.barrier();
      if (rank == 0) trace::set_on(traced);
      comm.barrier();
      trace::set_thread_op(k);
      const int tok = trace::begin("ksp.solve");
      const double t0 = now_s();
      const ksp::SolveResult res = cg.solve(ctx, b, x);
      const double dt = now_s() - t0;
      trace::end(tok);
      comm.barrier();
      if (rank == 0) trace::set_on(false);

      const double slowest = comm.allreduce(dt, par::Comm::ReduceOp::kMax);
      const std::vector<Scalar> x_global = comm.allgatherv(x.to_std());
      if (rank != 0) continue;
      run.solve_ms.push_back(slowest * 1e3);
      run.iterations.push_back(res.iterations);
      run.traced.push_back(traced ? 1 : 0);
      const double rel = residual_norm(global, x_global.data(), b_global.data()) /
                         norm2(b_global.data(), global.rows());
      if (res.converged && rel <= 10.0 * kRtol) {
        ++run.verified;
      } else if (run.failures.size() < 4) {
        run.failures.push_back("solve " + std::to_string(k) +
                               ": relative residual " + std::to_string(rel));
      }
    }
    run.spmv_stats[static_cast<std::size_t>(rank)] = ctx.spmv_stats;
    run.spmv_calls[static_cast<std::size_t>(rank)] = ctx.spmv_calls;

    if (trace_even) {
      // The diagonal block alone, without the ghost exchange.
      std::vector<double> ms;
      for (int r = 0; r < 200; ++r) {
        const double t0 = now_s();
        a.diag_block().spmv(x.data(), y.data());
        ms.push_back((now_s() - t0) * 1e3);
      }
      const double slowest =
          comm.allreduce(median(ms), par::Comm::ReduceOp::kMax);
      if (rank == 0) run.local_spmv_ms = slowest;
    }
  });
  return run;
}

/// Operator assembly, fabric start and ParMatrix construction, including
/// the first spmv that opens the persistent exchange.
double setup_once(Index nx) {
  const double t0 = now_s();
  const mat::Csr global = app::laplacian_dirichlet(nx, nx);
  const auto layout = std::make_shared<const par::Layout>(
      par::Layout::even(global.rows(), kRanks));
  par::Fabric::run(kRanks, fabric_options(), [&](par::Comm& comm) {
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, matrix_options());
    Vector x(a.local_rows(), 1.0), y;
    a.spmv_local(x.data(), y, comm);
  });
  return now_s() - t0;
}

}  // namespace

std::vector<double> make_rhs(std::uint64_t seed, std::int64_t n) {
  Rng rng(seed);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (double& v : b) v = rng.uniform(-1.0, 1.0);
  return b;
}

std::vector<int> dist_cg_iterations(std::uint64_t seed, int nx, int solves) {
  const mat::Csr global = app::laplacian_dirichlet(nx, nx);
  return run_solves(global, seed, 0.0, solves, solves, false).iterations;
}

void run_dist_cg(const Args& args, Result& out) {
  const Index nx = args.smoke ? 24 : 128;
  const int setup_reps = args.smoke ? 3 : 15;
  const mat::Csr global = app::laplacian_dirichlet(nx, nx);

  std::vector<double> setup_s;
  setup_once(nx);  // warm-up, not counted
  for (int r = 0; r < setup_reps; ++r) setup_s.push_back(setup_once(nx));

  const CgRun run = run_solves(global, args.seed, args.seconds,
                               args.smoke ? 4 : 100, 0, args.trace);
  out.attempted += static_cast<std::int64_t>(run.solve_ms.size());
  out.failed += static_cast<std::int64_t>(run.solve_ms.size()) - run.verified;
  for (const std::string& f : run.failures) out.failures.push_back(f);

  std::vector<double> plain_ms, traced_ms, its;
  for (std::size_t k = 0; k < run.solve_ms.size(); ++k) {
    (run.traced[k] ? traced_ms : plain_ms).push_back(run.solve_ms[k]);
    its.push_back(run.iterations[k]);
  }
  const auto ns = static_cast<std::int64_t>(plain_ms.size());
  out.e2e.push_back({"setup_s", median(setup_s), "s",
                     static_cast<std::int64_t>(setup_s.size())});
  out.e2e.push_back({"latency_p50_ms", median(plain_ms), "ms", ns});
  if (percentile_supported(plain_ms.size(), 90.0)) {
    out.named.push_back(
        {"latency_p90_ms", percentile(plain_ms, 90.0), "ms", ns});
  }
  out.named.push_back({"ksp.its_per_solve", mean(its), "count",
                       static_cast<std::int64_t>(its.size())});
  if (!args.trace) return;

  const std::vector<Span> spans = trace::collect();
  std::int64_t calls = 0;
  double parks = 0, wakeups = 0, copies = 0, allocs = 0;
  for (int r = 0; r < kRanks; ++r) {
    const auto& st = run.spmv_stats[static_cast<std::size_t>(r)];
    calls += run.spmv_calls[static_cast<std::size_t>(r)];
    parks += static_cast<double>(st.send_parks);
    wakeups += static_cast<double>(st.wait_any_wakeups);
    copies += static_cast<double>(st.payload_copies);
    allocs += static_cast<double>(st.mailbox_allocs);
  }
  const double per_call = calls > 0 ? 1.0 / static_cast<double>(calls) : 0.0;
  const LayerStats spmv = layer_stats(spans, "par.spmv");
  const LayerStats allreduce = layer_stats(spans, "par.allreduce");
  const LayerStats solves = layer_stats(spans, "ksp.solve");
  const auto nspmv = static_cast<std::int64_t>(spmv.durations_ms.size());
  // Busy time in the operator per rank (each rank is one recording
  // thread): slowest rank over the mean.
  std::map<int, double> rank_ms;
  for (const Span& s : spans) {
    if (std::string(s.name) == "par.spmv") rank_ms[s.thread] += s.ms();
  }
  double mx = 0.0, sum = 0.0;
  for (const auto& [thread, ms] : rank_ms) {
    mx = std::max(mx, ms);
    sum += ms;
  }
  out.layer.push_back({"par.spmv_ms", median(spmv.durations_ms), "ms", nspmv});
  out.layer.push_back({"par.local_spmv_ms", run.local_spmv_ms, "ms", 200});
  out.layer.push_back({"par.allreduce_us",
                       median(allreduce.durations_ms) * 1e3, "us",
                       static_cast<std::int64_t>(allreduce.durations_ms.size())});
  out.layer.push_back({"par.allreduce_calls",
                       static_cast<double>(allreduce.durations_ms.size()) /
                           static_cast<double>(solves.durations_ms.size()),
                       "count",
                       static_cast<std::int64_t>(solves.durations_ms.size())});
  out.layer.push_back({"par.setup_ms", median(setup_s) * 1e3, "ms",
                       static_cast<std::int64_t>(setup_s.size())});
  out.layer.push_back({"par.rank_imbalance",
                       sum > 0.0 ? mx * static_cast<double>(rank_ms.size()) / sum
                                 : 0.0,
                       "ratio", nspmv});
  out.layer.push_back({"par.send_parks", parks * per_call, "count", calls});
  out.layer.push_back({"par.wait_any_wakeups", wakeups * per_call, "count", calls});
  out.layer.push_back({"par.payload_copies", copies * per_call, "count", calls});
  out.layer.push_back({"par.mailbox_allocs", allocs * per_call, "count", calls});
  out.layer.push_back({"ksp.its_per_solve", mean(its), "count",
                       static_cast<std::int64_t>(its.size())});
  out.layer.push_back({"trace.overhead_pct",
                       100.0 * (median(traced_ms) / median(plain_ms) - 1.0), "%",
                       static_cast<std::int64_t>(run.solve_ms.size())});
  out.layer.push_back({"trace.unattributed_pct",
                       100.0 * self_ms(spans, "ksp.solve") / solves.total_ms, "%",
                       static_cast<std::int64_t>(solves.durations_ms.size())});
  finish_trace(args, spans, out);
}

}  // namespace perfbench
