// Kestrel Slim bench: the bytes-vs-Gflop/s ablation behind the fp32 value
// stream. Sweeps every format over the storage grid {fat, fp32} on a
// bandwidth-bound banded matrix and reports the throughput of each cell
// next to its section-6 traffic model. The fp32 column is the CI gate:
// the per-nonzero traffic drops from 12 B to 8 B for CSR/SELL, so on a
// memory-bound matrix at least two formats must clear a 1.3x speedup
// (slim_gate_count >= 2, asserted by tools/bench_gates.py when
// slim_gate_eligible).
//
// Eligibility mirrors the other gated benches: the host must have the
// AVX-512 tier the gate was calibrated on — without it the metrics are
// still exported, the gate is skipped.
//
// When Kestrel Pulse counters are available the bench also records the
// MEASURED DRAM bytes of every fp32 multiply against the fp32 traffic
// model, under the same [0.25, 4.0] wiring band bench_hwc applies to the
// fat formats.
//
//   ./bench_slim [--smoke] [--json BENCH_slim.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "mat/slim.hpp"
#include "prof/hwc.hpp"
#include "simd/isa.hpp"

namespace {

using namespace kestrel;

struct SlimConfig {
  const char* label;
  mat::SlimOptions opts;
};

/// Square banded matrix with `2 * half + 1` nonzeros per interior row,
/// assembled directly in CSR form (no COO sort — at bench sizes that
/// dominates startup). Diagonally dominant so the fp32 shadow stays
/// well-conditioned.
mat::Csr banded_matrix(Index m, Index half) {
  std::vector<Index> rowptr(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> colidx;
  std::vector<Scalar> val;
  colidx.reserve(static_cast<std::size_t>(m) * (2 * half + 1));
  val.reserve(colidx.capacity());
  for (Index i = 0; i < m; ++i) {
    for (Index j = std::max(Index{0}, i - half);
         j <= std::min(m - 1, i + half); ++j) {
      colidx.push_back(j);
      val.push_back(i == j ? 4.0 * half : -1.0 / (1 + std::abs(i - j)));
    }
    rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<Index>(colidx.size());
  }
  return mat::Csr(m, m, std::move(rowptr), std::move(colidx),
                  std::move(val));
}

/// Measured DRAM bytes per multiply (0 when counters are unavailable).
double measured_bytes(const mat::Matrix& a) {
  const Vector x = bench::input_vector(a.cols());
  Vector y(a.rows());
  a.spmv(x.data(), y.data());  // warm up
  const int reps = 5;
  const prof::hwc::Reading r0 = prof::hwc::read_thread();
  for (int r = 0; r < reps; ++r) a.spmv(x.data(), y.data());
  const prof::hwc::Reading r1 = prof::hwc::read_thread();
  volatile double sink = y[0];
  (void)sink;
  const prof::hwc::Reading d = prof::hwc::delta(r0, r1);
  if (!d.valid) return 0.0;
  return static_cast<double>(d.dram_bytes) / reps;
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  bench::header(
      "Kestrel Slim: bytes-vs-Gflop/s ablation, format x scalar");

  const simd::IsaTier best = simd::detect_best_tier();
  const bool gate_eligible = best == simd::IsaTier::kAvx512;
  std::printf("isa tier: %s (gate %s)\n", simd::tier_name(best),
              gate_eligible ? "ELIGIBLE, needs >= 1.3x on >= 2 formats"
                            : "SKIPPED: calibrated on AVX-512");

  const bool hwc_on = prof::hwc::enable_if_capable();
  const prof::hwc::Source source = prof::hwc::source();
  const bool hwc_hw = hwc_on && (source == prof::hwc::Source::kLlcFallback ||
                                 source == prof::hwc::Source::kUncoreImc);
  if (hwc_on) {
    std::printf("hwc: source %s\n", prof::hwc::source_name(source));
  } else {
    std::printf("hwc: skipped: no PMU access (%s)\n",
                prof::hwc::capability().detail.c_str());
  }

  // The gate needs a memory-bound matrix, so the size is NOT --smoke
  // scaled (a cache-resident matrix would measure the widening ALU cost,
  // not the traffic win the design buys). Smoke only trims the
  // repetitions.
  const Index rows = 480000;
  const Index half = 8;  // 17 nonzeros per row
  const mat::Csr csr = banded_matrix(rows, half);
  std::printf("matrix: %d rows, %lld nnz (banded, halfwidth %d)\n\n",
              csr.rows(), static_cast<long long>(csr.nnz()), half);

  const SlimConfig configs[] = {
      {"fat", {.fp32 = false}},
      {"fp32", {.fp32 = true}},  // the gated column
  };
  // The gate matrix stays full size, so keep real repetitions under
  // --smoke too: the gate metric must be a measurement, not a wiring check.
  const int reps = bench::scaled_reps(10, 5);
  const double secs = bench::smoke_mode() ? 0.1 : 0.3;

  prof::Profiler log;
  log.set_metric("matrix_rows", static_cast<double>(csr.rows()));
  log.set_metric("matrix_nnz", static_cast<double>(csr.nnz()));
  log.set_metric("slim_gate_eligible", gate_eligible ? 1.0 : 0.0);

  int gate_count = 0;
  bool band_failed = false;
  std::printf("%-8s", "format");
  for (const SlimConfig& c : configs) {
    std::printf(" %9s[GF/s]    IQR", c.label);
  }
  std::printf("  speedup  model B/mult (fat->fp32)\n");
  for (const char* fmt : bench::kFormats) {
    std::printf("%-8s", fmt);
    double fat_gf = 0.0, fp32_gf = 0.0;
    std::size_t fat_bytes = 0, fp32_bytes = 0;
    for (const SlimConfig& c : configs) {
      auto m = bench::format(fmt, csr, best);
      const bool ok = m->set_slim(c.opts);
      const bench::Sample t = bench::time_spmv(*m, reps, secs);
      const double gf = bench::gflops(*m, t.median);
      std::printf(" %15.2f %s", gf, bench::spread(t).c_str());
      const std::string key = std::string("slim/") + fmt + "/" + c.label;
      log.set_metric(key + "_gflops", gf);
      log.set_metric(key + "_eligible", ok ? 1.0 : 0.0);
      if (c.opts.fp32) {
        fp32_gf = ok ? gf : 0.0;
        fp32_bytes = m->spmv_traffic_bytes();
        if (hwc_hw && ok && !bench::smoke_mode()) {
          const double meas = measured_bytes(*m);
          const double ratio =
              meas / static_cast<double>(m->spmv_traffic_bytes());
          log.set_metric(key + "_bytes_ratio", ratio);
          if (ratio < 0.25 || ratio > 4.0) {
            std::printf("\nBAND FAILED: %s fp32 measured/model = %.3f "
                        "outside [0.25, 4.0]\n",
                        fmt, ratio);
            band_failed = true;
          }
        }
      } else {
        fat_gf = gf;
        fat_bytes = m->spmv_traffic_bytes();
      }
    }
    const double speedup = fat_gf > 0.0 ? fp32_gf / fat_gf : 0.0;
    if (speedup >= 1.3) ++gate_count;
    log.set_metric(std::string("slim/") + fmt + "/speedup", speedup);
    std::printf("  %6.2fx  %zu -> %zu\n", speedup, fat_bytes, fp32_bytes);
  }

  log.set_metric("slim_gate_count", static_cast<double>(gate_count));
  std::printf("\n%d format(s) at >= 1.3x fp32 speedup (gate %s: "
              "needs >= 2)\n",
              gate_count, gate_eligible ? "eligible" : "skipped");

  return bench::write_metrics(log) && !band_failed ? 0 : 1;
}
