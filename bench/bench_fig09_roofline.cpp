// Figure 9 — "Roofline analysis of the SpMV kernel on KNL": bandwidth
// ceilings, arithmetic intensity of the SpMV variants, and each variant's
// position relative to the MCDRAM roofline.
//
// Modeled section uses the ceilings printed in the paper's figure (LBNL
// Empirical Roofline Tool on Theta). Measured section builds this host's
// own roofline from a register-resident FMA peak and measured STREAM,
// with the achieved bandwidth of the measured CSR and SELL kernels. Then
// the section 6 memory-traffic model, CSR vs SELL, and the actual storage
// footprints: the quantitative backbone of the paper's "SpMV is
// bandwidth bound" argument.

#include <cstdio>

#include "bench_common.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "perf/roofline.hpp"
#include "perf/stream.hpp"

int main(int argc, char** argv) {
  using namespace kestrel;
  using namespace kestrel::perf;

  bench::parse_args(argc, argv);
  bench::header("Figure 9 (modeled): roofline on KNL (Theta ceilings)");
  const RooflineCeilings c = knl_ceilings_fig9();
  std::printf("ceilings: peak %.1f Gflop/s | L1 %.1f GB/s | L2 %.1f GB/s | "
              "MCDRAM %.1f GB/s\n\n",
              c.peak_gflops, c.l1_gbs, c.l2_gbs, c.mem_gbs);
  std::printf("%-20s %8s %10s %14s %12s\n", "kernel", "AI", "Gflop/s",
              "MCDRAM limit", "% of limit");
  for (const RooflinePoint& p : modeled_roofline_points()) {
    const double limit = roofline_limit(c, p.ai);
    std::printf("%-20s %8.3f %10.2f %14.2f %11.1f%%\n", p.label.c_str(),
                p.ai, p.gflops, limit, 100.0 * p.gflops / limit);
  }
  std::printf(
      "\nExpected shape (paper): AI ~= 0.132 for CSR variants (slightly\n"
      "higher for SELL, whose per-row metadata is smaller); SELL-AVX512\n"
      "sits close to the MCDRAM roofline, the baseline far below it.\n");

  bench::header("Figure 9 (measured): this host's roofline");
  const double peak =
      measured_peak_gflops(bench::smoke_mode() ? 5 : 200);
  const StreamResult stream = bench::smoke_mode() ? run_stream(1 << 16, 1)
                                                  : run_stream(1 << 23, 3);
  std::printf("measured peak (FMA): %8.2f Gflop/s\n", peak);
  std::printf("measured triad BW:   %8.2f GB/s\n\n", stream.triad_gbs);

  const mat::Csr csr = bench::gray_scott_matrix(bench::scaled(384));
  const mat::Sell sell(csr);
  std::printf("%-16s %8s %10s %6s %10s %16s\n", "kernel", "AI", "Gflop/s",
              "IQR", "GB/s", "roofline limit");
  const auto measured = [&](const char* label, const mat::Matrix& a) {
    const double ai =
        2.0 * a.nnz() / static_cast<double>(a.spmv_traffic_bytes());
    const bench::Sample t = bench::time_spmv(a);
    std::printf("%-16s %8.3f %10.2f %s %10.2f %16.2f\n", label, ai,
                bench::gflops(a, t.median), bench::spread(t).c_str(),
                bench::achieved_gbs(a, t.median),
                std::min(peak, stream.triad_gbs * ai));
  };
  measured("CSR (best ISA)", csr);
  measured("SELL (best ISA)", sell);

  bench::header("Section 6: SpMV minimum memory traffic, CSR vs SELL");
  std::printf("%10s %14s %14s %14s %9s\n", "grid", "nnz", "CSR bytes",
              "SELL bytes", "saved");
  for (Index n : {128, 256, 512, 1024}) {
    const mat::Csr grid_csr =
        bench::gray_scott_matrix(bench::scaled(n, n / 16));
    const mat::Sell grid_sell(grid_csr);
    const double saved =
        100.0 * (1.0 - static_cast<double>(grid_sell.spmv_traffic_bytes()) /
                           static_cast<double>(grid_csr.spmv_traffic_bytes()));
    std::printf("%6dx%-3d %14lld %14zu %14zu %8.2f%%\n", n, n,
                static_cast<long long>(grid_csr.nnz()),
                grid_csr.spmv_traffic_bytes(), grid_sell.spmv_traffic_bytes(),
                saved);
  }
  std::printf(
      "\nclosed forms: CSR 12*nnz + 24m + 8n | SELL 12*nnz + 10m + 8n\n");

  bench::header("Storage footprint (actual arrays incl. padding)");
  const mat::CsrPerm perm{mat::Csr(csr)};
  std::printf("%-10s %14zu bytes\n", "CSR", csr.storage_bytes());
  std::printf("%-10s %14zu bytes (fill ratio %.4f)\n", "SELL",
              sell.storage_bytes(), sell.fill_ratio());
  std::printf("%-10s %14zu bytes\n", "CSRPerm", perm.storage_bytes());
  return 0;
}
