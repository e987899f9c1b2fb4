// Figure 8 — "Comparison of various matrix formats on a single KNL node":
// SpMV Gflop/s for nine kernel variants (SELL/CSR x AVX-512/AVX2/AVX,
// CSRPerm, CSR baseline, MKL CSR) as the MPI rank count grows.
//
// Section 1 is the modeled KNL sweep (paper hardware). Section 2 is the
// real thing at this host's scale: every variant this CPU can execute, run
// on an actual Gray–Scott Jacobian — this is the measured evidence for the
// paper's core claim that SELL + AVX-512 beats CSR.

#include <cstdio>
#include <memory>

#include "aegis/abft.hpp"
#include "bench_common.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "perf/spmv_model.hpp"
#include "prof/profiler.hpp"

namespace {

using namespace kestrel;
using simd::IsaTier;

struct ModelVariant {
  const char* label;
  perf::ModelFormat fmt;
  IsaTier tier;
};

constexpr ModelVariant kVariants[] = {
    {"SELL using AVX512", perf::ModelFormat::kSell, IsaTier::kAvx512},
    {"SELL using AVX2", perf::ModelFormat::kSell, IsaTier::kAvx2},
    {"SELL using AVX", perf::ModelFormat::kSell, IsaTier::kAvx},
    {"CSR using AVX512", perf::ModelFormat::kCsr, IsaTier::kAvx512},
    {"CSR using AVX2", perf::ModelFormat::kCsr, IsaTier::kAvx2},
    {"CSR using AVX", perf::ModelFormat::kCsr, IsaTier::kAvx},
    {"CSRPerm", perf::ModelFormat::kCsrPerm, IsaTier::kAvx512},
    {"CSR baseline", perf::ModelFormat::kCsrBaseline, IsaTier::kScalar},
    {"MKL CSR", perf::ModelFormat::kMklCsr, IsaTier::kScalar},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace kestrel;

  bench::parse_args(argc, argv);
  bench::header(
      "Figure 8 (modeled): SpMV on one KNL node, Gray-Scott 2048^2 "
      "(~8M dof) [Gflop/s]");
  const perf::MachineProfile knl = perf::knl7230();
  const auto w = perf::SpmvWorkload::gray_scott(2048);
  std::printf("%-18s", "variant \\ procs");
  for (int p : {4, 8, 16, 32, 64}) std::printf(" %8d", p);
  std::printf("\n");
  for (const ModelVariant& v : kVariants) {
    std::printf("%-18s", v.label);
    for (int p : {4, 8, 16, 32, 64}) {
      std::printf(" %8.2f", perf::modeled_spmv_gflops(
                                knl, perf::MemoryMode::kFlatMcdram, p, v.fmt,
                                v.tier, w));
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): SELL-AVX512 ~2x the CSR baseline;\n"
      "SELL-AVX ~1.8x, SELL-AVX2 ~1.7x; hand-vectorized CSR-AVX512 +54%%;\n"
      "CSR-AVX2 regresses below CSR-AVX; CSRPerm ~= baseline; MKL below\n"
      "baseline; good strong scaling to 64 ranks.\n");

  bench::header(
      "Figure 8 (measured): all kernel variants on this host (1 process)");
  mat::Csr csr = bench::gray_scott_matrix(bench::scaled(512));
  std::printf("matrix: %d rows, %lld nnz (10 per row)\n\n", csr.rows(),
              static_cast<long long>(csr.nnz()));
  std::printf("%-20s %10s %6s %10s %10s\n", "variant", "Gflop/s", "IQR",
              "GB/s", "vs base");

  csr.set_tier(IsaTier::kScalar);
  const double t_base = bench::time_spmv(csr).median;

  auto report = [&](const char* label, const mat::Matrix& a) {
    const bench::Sample t = bench::time_spmv(a);
    std::printf("%-20s %10.2f %s %10.2f %9.2fx\n", label,
                bench::gflops(a, t.median), bench::spread(t).c_str(),
                bench::achieved_gbs(a, t.median), t_base / t.median);
    return bench::gflops(a, t.median);
  };

  const IsaTier best = simd::detect_best_tier();
  double gf_sell = 0.0, gf_csr = 0.0;
  for (int ti = static_cast<int>(best); ti >= 0; --ti) {
    const IsaTier tier = static_cast<IsaTier>(ti);
    mat::Sell s2(csr);
    s2.set_tier(tier);
    const std::string label =
        std::string("SELL using ") + simd::tier_name(tier);
    const double gf = report(label.c_str(), s2);
    if (tier == best) gf_sell = gf;
  }
  for (int ti = static_cast<int>(best); ti >= 1; --ti) {
    const IsaTier tier = static_cast<IsaTier>(ti);
    mat::Csr c2 = csr;
    c2.set_tier(tier);
    const std::string label =
        std::string("CSR using ") + simd::tier_name(tier);
    const double gf = report(label.c_str(), c2);
    if (tier == best) gf_csr = gf;
  }
  double gf_talon = 0.0;
  for (int ti = static_cast<int>(best); ti >= 0; --ti) {
    const IsaTier tier = static_cast<IsaTier>(ti);
    mat::Talon t2(csr);
    t2.set_tier(tier);
    const std::string label =
        std::string("Talon using ") + simd::tier_name(tier);
    const double gf = report(label.c_str(), t2);
    if (tier == best) gf_talon = gf;
  }
  double gf_bcsr = 0.0;
  {
    mat::Bcsr b2(csr, 2);  // natural 2x2 dof blocks of Gray-Scott
    b2.set_tier(best);
    gf_bcsr = report("BCSR bs=2", b2);
  }
  {
    mat::CsrPerm p2{mat::Csr(csr)};
    p2.set_tier(best);
    report("CSRPerm", p2);
  }
  const double gf_base = report("CSR baseline", csr);

  // Kestrel Aegis: ABFT verification overhead (EXPERIMENTS.md procedure).
  // The checksum verify is one c·x dot plus one Σy reduction per spmv —
  // O(n) against the O(nnz) multiply — so on nnz/row ≈ 10 matrices it
  // should stay well under the 10% budget.
  bench::header("Kestrel Aegis: ABFT-checksummed SpMV overhead");
  std::printf("%-20s %11s %6s %11s %6s %10s\n", "variant", "plain",
              "IQR", "abft", "IQR", "overhead");
  auto abft_overhead = [&](const char* label,
                           std::shared_ptr<const mat::Matrix> inner,
                           int verify_every) {
    const bench::Sample t_plain = bench::time_spmv(*inner);
    aegis::AbftOptions aopts;
    aopts.verify_every = verify_every;
    const aegis::AbftMatrix guarded(std::move(inner), aopts);
    const bench::Sample t_abft = bench::time_spmv(guarded);
    const double pct =
        100.0 * (t_abft.median - t_plain.median) / t_plain.median;
    std::printf("%-20s %9.2fns %s %9.2fns %s %9.2f%%\n", label,
                t_plain.median * 1e9, bench::spread(t_plain).c_str(),
                t_abft.median * 1e9, bench::spread(t_abft).c_str(), pct);
    return pct;
  };
  auto sell_best = std::make_shared<mat::Sell>(csr);
  sell_best->set_tier(best);
  const double abft_pct_sell = abft_overhead("SELL best-ISA", sell_best, 1);
  auto sell_every2 = std::make_shared<mat::Sell>(csr);
  sell_every2->set_tier(best);
  const double abft_pct_sell2 =
      abft_overhead("SELL, verify 1-in-2", sell_every2, 2);
  auto csr_best = std::make_shared<mat::Csr>(csr);
  csr_best->set_tier(best);
  const double abft_pct_csr = abft_overhead("CSR best-ISA", csr_best, 1);

  // Per-format Gflop/s at the host's best ISA tier, for the bench-smoke
  // CI job (BENCH_spmv.json) and figure scripts.
  prof::Profiler log;
  log.set_metric("spmv_gflops/csr", gf_csr > 0.0 ? gf_csr : gf_base);
  log.set_metric("spmv_gflops/csr_baseline", gf_base);
  log.set_metric("spmv_gflops/sell", gf_sell);
  log.set_metric("spmv_gflops/bcsr", gf_bcsr);
  log.set_metric("spmv_gflops/talon", gf_talon);
  log.set_metric("matrix_rows", static_cast<double>(csr.rows()));
  log.set_metric("matrix_nnz", static_cast<double>(csr.nnz()));
  log.set_metric("abft_overhead_pct/sell", abft_pct_sell);
  log.set_metric("abft_overhead_pct/sell_every2", abft_pct_sell2);
  log.set_metric("abft_overhead_pct/csr", abft_pct_csr);
  return bench::write_metrics(log) ? 0 : 1;
}
