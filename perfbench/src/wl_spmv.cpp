// spmv: y = A x on the Gray–Scott Newton Jacobian (I - dt/2 J_f, n=256:
// 131,072 rows, 1.31 M nonzeros) in the five formats the paper compares,
// single thread, best ISA tier. The formats run in short interleaved
// slices so every host phase hits all of them alike; one operation is one
// MatMult. The matrix stays in cache on purpose; bytes are computed from
// the format's storage, not counted.

#include <array>
#include <memory>

#include "app/gray_scott.hpp"
#include "base/rng.hpp"
#include "host.hpp"
#include "layers.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/spgemm.hpp"
#include "mat/talon.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace kestrel;

constexpr int kFormats = 5;
constexpr std::array<const char*, kFormats> kName = {"csr", "csrperm", "sell",
                                                     "bcsr", "talon"};
constexpr std::array<const char*, kFormats> kSpmvSpan = {
    "mat.csr.spmv", "mat.csrperm.spmv", "mat.sell.spmv", "mat.bcsr.spmv",
    "mat.talon.spmv"};
constexpr std::array<const char*, kFormats> kSliceSpan = {
    "mat.csr.slice", "mat.csrperm.slice", "mat.sell.slice",
    "mat.bcsr.slice", "mat.talon.slice"};
constexpr double kSliceS = 0.02;

mat::MatrixPtr build_format(int f, const mat::Csr& a) {
  switch (f) {
    case 0:
      return std::make_shared<const mat::Csr>(a);
    case 1:
      return std::make_shared<const mat::CsrPerm>(mat::Csr(a));
    case 2:
      return std::make_shared<const mat::Sell>(a);
    case 3:
      return std::make_shared<const mat::Bcsr>(a, 2);
    default:
      return std::make_shared<const mat::Talon>(a);
  }
}

/// The Newton Jacobian I - dt*theta*J_f at the seeded initial state.
mat::Csr assemble(Index n, std::uint64_t seed) {
  const app::GrayScott gs(n);
  const Vector u = seeded_initial_condition(gs, seed);
  const mat::Csr jf = gs.rhs_jacobian(u);
  return mat::add(1.0, mat::identity(gs.size()), -0.5, jf);
}

/// Runs `op` back to back for one slice, appending each call's ms.
void slice(const mat::Matrix& op, const char* span, const Vector& x,
           Vector& y, std::vector<double>& calls_ms) {
  const std::int64_t bytes = static_cast<std::int64_t>(op.spmv_traffic_bytes());
  const double end = now_s() + kSliceS;
  do {
    const std::int64_t t0 = now_ns();
    const int tok = trace::begin(span, bytes);
    op.spmv(x.data(), y.data());
    trace::end(tok);
    calls_ms.push_back(static_cast<double>(now_ns() - t0) * 1e-6);
  } while (now_s() < end);
}

}  // namespace

void run_spmv(const Args& args, Result& out) {
  const Index n = args.smoke ? 64 : 256;
  const int setup_reps = args.smoke ? 2 : 7;

  // Set-up: assembly plus the five builds, each timed on its own too.
  std::vector<double> setup_s;
  std::array<std::vector<double>, kFormats> convert_ms;
  for (int r = -1; r < setup_reps; ++r) {  // r = -1: warm-up, not counted
    const double t0 = now_s();
    const mat::Csr a = assemble(n, args.seed);
    for (int f = 0; f < kFormats; ++f) {
      const double c0 = now_s();
      const mat::MatrixPtr op = build_format(f, a);
      if (r >= 0) {
        convert_ms[static_cast<std::size_t>(f)].push_back((now_s() - c0) * 1e3);
      }
    }
    if (r >= 0) setup_s.push_back(now_s() - t0);
  }

  const mat::Csr a = assemble(n, args.seed);
  std::array<mat::MatrixPtr, kFormats> ops;
  for (int f = 0; f < kFormats; ++f) ops[static_cast<std::size_t>(f)] = build_format(f, a);
  mat::Csr scalar_csr(a);
  scalar_csr.set_tier(simd::IsaTier::kScalar);
  Triad triad(a.spmv_traffic_bytes() / 24);

  Vector x(a.cols());
  Rng rng(args.seed);
  for (Index i = 0; i < x.size(); ++i) x[i] = rng.uniform(-1.0, 1.0);
  std::array<Vector, kFormats> y;
  for (auto& v : y) v = Vector(a.rows());
  Vector y_scalar(a.rows());
  for (int f = 0; f < kFormats; ++f) {
    ops[static_cast<std::size_t>(f)]->spmv(x.data(), y[static_cast<std::size_t>(f)].data());
  }

  // Rounds of one slice per format, starting format rotated per round. In
  // the traced run even rounds record spans and odd ones do not.
  std::array<std::vector<double>, kFormats> traced_ms, plain_ms;
  std::vector<double> scalar_ms, triad_gbs;
  const double t_end = now_s() + args.seconds;
  for (int round = 0; round < 2 || now_s() < t_end; ++round) {
    const bool traced = args.trace && round % 2 == 0;
    trace::set_on(traced);
    trace::set_thread_op(round);
    const int round_tok = trace::begin("spmv.round");
    for (int k = 0; k < kFormats; ++k) {
      const auto f = static_cast<std::size_t>((round + k) % kFormats);
      {
        trace::Scope s(kSliceSpan[f]);
        slice(*ops[f], kSpmvSpan[f], x, y[f], traced ? traced_ms[f] : plain_ms[f]);
      }
      trace::Scope s("bench.check");
      const std::int64_t bad = spmv_bound_violations(a, x.data(), y[f].data());
      out.check(bad == 0, std::string(kName[f]) + ": " + std::to_string(bad) +
                              " rows outside the gamma_k bound");
    }
    if (args.trace) {
      slice(scalar_csr, "mat.csr_scalar.spmv", x, y_scalar, scalar_ms);
      for (int pass = 0; pass < 4; ++pass) {
        triad_gbs.push_back(triad.bytes() / triad.run() / 1e9);
      }
    }
    trace::end(round_tok);
    trace::set_on(false);
  }

  double sum_median_ms = 0.0;
  std::int64_t samples = 0;
  for (int f = 0; f < kFormats; ++f) {
    sum_median_ms += median(plain_ms[static_cast<std::size_t>(f)]);
    samples += static_cast<std::int64_t>(plain_ms[static_cast<std::size_t>(f)].size());
  }
  out.e2e.push_back({"setup_s", median(setup_s), "s",
                     static_cast<std::int64_t>(setup_s.size())});
  out.e2e.push_back({"latency_p50_ms", sum_median_ms, "ms", samples});
  out.named.push_back({"gflops",
                       2.0 * kFormats * static_cast<double>(a.nnz()) /
                           (sum_median_ms * 1e-3) / 1e9,
                       "Gflop/s", samples});
  if (!args.trace) return;

  const std::vector<Span> spans = trace::collect();
  const double triad_gbs_median = median(triad_gbs);
  double sum_traced_ms = 0.0;
  for (int f = 0; f < kFormats; ++f) {
    const auto fi = static_cast<std::size_t>(f);
    const std::string p = std::string("mat.") + kName[fi] + ".";
    const LayerStats st = layer_stats(spans, kSpmvSpan[fi]);
    const double ms = median(st.durations_ms);
    sum_traced_ms += ms;
    const auto nc = static_cast<std::int64_t>(st.durations_ms.size());
    out.layer.push_back({p + "spmv_ms", ms, "ms", nc});
    const double gbs =
        static_cast<double>(ops[fi]->spmv_traffic_bytes()) / (ms * 1e-3) / 1e9;
    out.layer.push_back({p + "pct_triad", 100.0 * gbs / triad_gbs_median, "%", nc});
    out.layer.push_back({p + "convert_ms", median(convert_ms[fi]), "ms",
                         static_cast<std::int64_t>(convert_ms[fi].size())});
  }
  out.layer.push_back({"mat.csr.isa_speedup",
                       median(scalar_ms) /
                           median(layer_stats(spans, kSpmvSpan[0]).durations_ms),
                       "ratio", static_cast<std::int64_t>(scalar_ms.size())});
  out.layer.push_back({"perf.triad_gbs", triad_gbs_median, "GB/s",
                       static_cast<std::int64_t>(triad_gbs.size())});
  out.layer.push_back({"trace.overhead_pct",
                       100.0 * (sum_traced_ms / sum_median_ms - 1.0), "%",
                       samples});
  const LayerStats rounds = layer_stats(spans, "spmv.round");
  out.layer.push_back({"trace.unattributed_pct",
                       100.0 * self_ms(spans, "spmv.round") / rounds.total_ms,
                       "%", static_cast<std::int64_t>(rounds.durations_ms.size())});
  finish_trace(args, spans, out);
}

}  // namespace perfbench
