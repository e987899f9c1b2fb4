// Figure 7 — "Baseline out of box SpMV performance using CSR for various
// grid sizes": Gflop/s of the default CSR kernel for three grid
// resolutions under flat-MCDRAM / flat-DRAM / cache modes at 16/32/64
// processes.
//
// Modeled KNL table (paper hardware) plus a measured sweep over scaled-down
// grids on this host demonstrating the same grid-size insensitivity.

#include <cstdio>

#include "bench_common.hpp"
#include "perf/spmv_model.hpp"

int main(int argc, char** argv) {
  using namespace kestrel;
  using namespace kestrel::perf;
  using simd::IsaTier;

  bench::parse_args(argc, argv);
  const MachineProfile knl = knl7230();
  const Index grids[] = {1024, 2048, 4096};
  const int procs[] = {16, 32, 64};
  const struct {
    MemoryMode mode;
    const char* label;
  } modes[] = {{MemoryMode::kFlatMcdram, "flat mode, MCDRAM"},
               {MemoryMode::kFlatDram, "flat mode, DRAM"},
               {MemoryMode::kCache, "cache mode"}};

  bench::header(
      "Figure 7 (modeled): out-of-box CSR SpMV on KNL [Gflop/s]");
  for (const auto& m : modes) {
    std::printf("\n-- %s --\n", m.label);
    std::printf("%10s", "procs");
    for (Index g : grids) std::printf("  %8dx%-5d", g, g);
    std::printf("\n");
    for (int p : procs) {
      std::printf("%10d", p);
      for (Index g : grids) {
        const double gf = modeled_spmv_gflops(
            knl, m.mode, p, ModelFormat::kCsrBaseline, IsaTier::kScalar,
            SpmvWorkload::gray_scott(g));
        std::printf("  %13.2f", gf);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nExpected shape (paper): performance is insensitive to grid size;\n"
      "MCDRAM vs DRAM gap appears only at 64 processes; cache mode is\n"
      "slightly below flat mode.\n");

  bench::header(
      "Figure 7 (measured): CSR baseline on this host across grid sizes");
  std::printf("%12s %12s %12s %6s %12s\n", "grid", "rows", "Gflop/s", "IQR",
              "GB/s");
  for (Index n : {192, 256, 384}) {
    mat::Csr a = bench::gray_scott_matrix(bench::scaled(n, n / 8));
    a.set_tier(simd::IsaTier::kScalar);
    const bench::Sample t = bench::time_spmv(a);
    std::printf("%7dx%-4d %12d %12.2f %s %12.2f\n", n, n, a.rows(),
                bench::gflops(a, t.median), bench::spread(t).c_str(),
                bench::achieved_gbs(a, t.median));
  }
  return 0;
}
