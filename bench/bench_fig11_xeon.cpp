// Figure 11 + Table 1 — "SpMV performance on different Xeon processors":
// Gflop/s of every kernel variant on Haswell, Broadwell, Skylake and KNL.
//
// Table 1's processor specifications are embedded as machine profiles; the
// modeled sweep reproduces the figure's shape. This host's measured
// CSR/SELL x ISA-tier table is Figure 8's (bench_fig08_formats).

#include <cstdio>

#include "bench_common.hpp"
#include "perf/spmv_model.hpp"

int main(int argc, char** argv) {
  using namespace kestrel;
  using namespace kestrel::perf;
  using simd::IsaTier;

  bench::parse_args(argc, argv);
  bench::header("Table 1: Intel processors used for evaluating SpMV");
  std::printf("%-22s %6s %10s %9s %12s %10s\n", "processor", "cores",
              "freq[GHz]", "L3[MB]", "DDR4[GB/s]", "HBM[GB/s]");
  for (const MachineProfile& m : table1_machines()) {
    std::printf("%-22s %6d %10.1f %9.1f %12.1f %10s\n", m.name.c_str(),
                m.cores, m.freq_ghz, m.l3_mb, m.dram_peak_gbs,
                m.has_mcdram() ? ">400" : "-");
  }

  bench::header(
      "Figure 11 (modeled): SpMV Gflop/s per platform, all cores, "
      "Gray-Scott 2048^2");
  const auto w = SpmvWorkload::gray_scott(2048);
  const struct {
    const char* label;
    ModelFormat fmt;
    IsaTier tier;
  } variants[] = {
      {"MKL", ModelFormat::kMklCsr, IsaTier::kScalar},
      {"CSR using novec", ModelFormat::kCsr, IsaTier::kScalar},
      {"SELL using novec", ModelFormat::kSell, IsaTier::kScalar},
      {"CSR using AVX", ModelFormat::kCsr, IsaTier::kAvx},
      {"SELL using AVX", ModelFormat::kSell, IsaTier::kAvx},
      {"CSR using AVX2", ModelFormat::kCsr, IsaTier::kAvx2},
      {"SELL using AVX2", ModelFormat::kSell, IsaTier::kAvx2},
      {"CSR using AVX512", ModelFormat::kCsr, IsaTier::kAvx512},
      {"SELL using AVX512", ModelFormat::kSell, IsaTier::kAvx512},
  };

  std::printf("%-18s", "variant \\ machine");
  for (const MachineProfile& m : table1_machines()) {
    std::printf(" %11.11s", m.name.c_str());
  }
  std::printf("\n");
  for (const auto& v : variants) {
    std::printf("%-18s", v.label);
    for (const MachineProfile& m : table1_machines()) {
      // each Xeon runs with every physical core occupied, its best memory
      const MemoryMode mode =
          m.has_mcdram() ? MemoryMode::kFlatMcdram : MemoryMode::kFlatDram;
      std::printf(" %11.2f",
                  modeled_spmv_gflops(m, mode, m.cores, v.fmt, v.tier, w));
    }
    std::printf("\n");
  }
  std::printf(
      "\nExpected shape (paper): marginal SELL-over-CSR gains on standard\n"
      "Xeons (memory bound), big gains on KNL; Skylake ~2x Broadwell and\n"
      "Haswell thanks to six memory channels; AVX-512 CSR best on KNL,\n"
      "while CSR AVX/AVX2 peak on Skylake.\n");
  return 0;
}
