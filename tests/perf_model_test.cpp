// Performance-model tests: these encode the QUALITATIVE claims of the
// paper's evaluation (who wins, by roughly what factor, where the
// crossovers are) so the benchmark harness cannot silently drift away from
// the published behavior.

#include <gtest/gtest.h>

#include <vector>

#include "base/error.hpp"
#include "perf/bwmodel.hpp"
#include "perf/commmodel.hpp"
#include "perf/machine.hpp"
#include "perf/roofline.hpp"
#include "perf/spmv_model.hpp"

namespace kestrel::perf {
namespace {

using simd::IsaTier;

const SpmvWorkload kW2048 = SpmvWorkload::gray_scott(2048);

double knl_gflops(ModelFormat fmt, IsaTier tier, int procs = 64,
                  MemoryMode mode = MemoryMode::kFlatMcdram) {
  return modeled_spmv_gflops(knl7230(), mode, procs, fmt, tier, kW2048);
}

TEST(BwModel, MonotoneAndSaturating) {
  const MachineProfile knl = knl7230();
  double prev = 0.0;
  for (int p : {1, 8, 16, 32, 64}) {
    const double bw =
        modeled_bandwidth(knl, MemoryMode::kFlatMcdram, p, true);
    EXPECT_GT(bw, prev);
    prev = bw;
  }
  // Figure 4: flat-mode MCDRAM approaches ~490 GB/s near saturation
  EXPECT_NEAR(modeled_bandwidth(knl, MemoryMode::kFlatMcdram, 64, true),
              490.0, 30.0);
}

TEST(BwModel, VectorizationMattersInFlatModeOnly) {
  // Figure 4: novec loses badly in flat mode, barely in cache mode.
  const MachineProfile knl = knl7230();
  const double flat_vec =
      modeled_bandwidth(knl, MemoryMode::kFlatMcdram, 64, true);
  const double flat_novec =
      modeled_bandwidth(knl, MemoryMode::kFlatMcdram, 64, false);
  EXPECT_LT(flat_novec, 0.5 * flat_vec);

  const double cache_vec = modeled_bandwidth(knl, MemoryMode::kCache, 64, true);
  const double cache_novec =
      modeled_bandwidth(knl, MemoryMode::kCache, 64, false);
  EXPECT_GT(cache_novec, 0.85 * cache_vec);
}

TEST(BwModel, CacheModeBelowFlatMode) {
  const MachineProfile knl = knl7230();
  EXPECT_LT(modeled_bandwidth(knl, MemoryMode::kCache, 64, true),
            modeled_bandwidth(knl, MemoryMode::kFlatMcdram, 64, true));
}

TEST(BwModel, DramFarBelowMcdram) {
  const MachineProfile knl = knl7230();
  EXPECT_LT(modeled_bandwidth(knl, MemoryMode::kFlatDram, 64, true),
            0.25 * modeled_bandwidth(knl, MemoryMode::kFlatMcdram, 64, true));
}

TEST(SpmvModel, Figure8RankingOnKnl) {
  // SELL-AVX512 > SELL-AVX >= SELL-AVX2 > CSR-AVX512 > CSR-AVX >
  // CSR-AVX2 ... > baseline > MKL
  const double sell512 = knl_gflops(ModelFormat::kSell, IsaTier::kAvx512);
  const double sell2 = knl_gflops(ModelFormat::kSell, IsaTier::kAvx2);
  const double sella = knl_gflops(ModelFormat::kSell, IsaTier::kAvx);
  const double csr512 = knl_gflops(ModelFormat::kCsr, IsaTier::kAvx512);
  const double csr2 = knl_gflops(ModelFormat::kCsr, IsaTier::kAvx2);
  const double csra = knl_gflops(ModelFormat::kCsr, IsaTier::kAvx);
  const double base =
      knl_gflops(ModelFormat::kCsrBaseline, IsaTier::kScalar);
  const double mkl = knl_gflops(ModelFormat::kMklCsr, IsaTier::kScalar);
  const double perm = knl_gflops(ModelFormat::kCsrPerm, IsaTier::kAvx512);

  EXPECT_GT(sell512, sella);
  EXPECT_GT(sella, csr512);
  EXPECT_GE(sella, sell2 * 0.99);  // AVX ~ AVX2 for SELL, AVX slightly up
  EXPECT_GT(csr512, csra);
  EXPECT_GT(csra, csr2);  // the paper's AVX2 FMA-serialization regression
  EXPECT_GT(csr2, mkl);
  EXPECT_GT(base, mkl);        // MKL 10-20% behind the PETSc baseline
  EXPECT_NEAR(perm / base, 1.0, 0.15);  // AIJPERM buys nothing on KNL
}

TEST(SpmvModel, Figure8HeadlineSpeedups) {
  const double base =
      knl_gflops(ModelFormat::kCsrBaseline, IsaTier::kScalar);
  const double sell512 = knl_gflops(ModelFormat::kSell, IsaTier::kAvx512);
  const double csr512 = knl_gflops(ModelFormat::kCsr, IsaTier::kAvx512);
  // Section 8: SELL ~2x over baseline; hand-vectorized CSR ~1.54x.
  EXPECT_NEAR(sell512 / base, 2.0, 0.25);
  EXPECT_NEAR(csr512 / base, 1.54, 0.2);
}

TEST(SpmvModel, Figure7GridSizeInsensitivity) {
  // "the performance is insensitive to the grid size"
  const MachineProfile knl = knl7230();
  const double g1 = modeled_spmv_gflops(
      knl, MemoryMode::kFlatMcdram, 64, ModelFormat::kCsrBaseline,
      IsaTier::kScalar, SpmvWorkload::gray_scott(1024));
  const double g4 = modeled_spmv_gflops(
      knl, MemoryMode::kFlatMcdram, 64, ModelFormat::kCsrBaseline,
      IsaTier::kScalar, SpmvWorkload::gray_scott(4096));
  EXPECT_NEAR(g1, g4, 0.05 * g1);
}

TEST(SpmvModel, Figure7DramGapOnlyAtFullOccupancy) {
  // "When using 16 or 32 processes, there is almost no difference ... The
  // gap becomes noticeable only when all the cores have been filled."
  const MachineProfile knl = knl7230();
  auto gap = [&](int procs) {
    const double mc = modeled_spmv_gflops(
        knl, MemoryMode::kFlatMcdram, procs, ModelFormat::kCsrBaseline,
        IsaTier::kScalar, kW2048);
    const double dr = modeled_spmv_gflops(
        knl, MemoryMode::kFlatDram, procs, ModelFormat::kCsrBaseline,
        IsaTier::kScalar, kW2048);
    return mc / dr;
  };
  EXPECT_LT(gap(16), 1.1);
  EXPECT_GT(gap(64), 1.5);
}

TEST(SpmvModel, Figure11MarginalGainsOnStandardXeons) {
  // "only marginal improvement for sliced ELLPACK over CSR on standard
  // Xeon platforms, but significant gains on KNL"
  for (const MachineProfile& xeon : {haswell(), broadwell(), skylake()}) {
    const double sell = modeled_spmv_gflops(
        xeon, MemoryMode::kFlatDram, xeon.cores, ModelFormat::kSell,
        IsaTier::kAvx512, kW2048);
    const double csr = modeled_spmv_gflops(
        xeon, MemoryMode::kFlatDram, xeon.cores,
        ModelFormat::kCsrBaseline, IsaTier::kScalar, kW2048);
    EXPECT_LT(sell / csr, 1.35) << xeon.name;
    EXPECT_GE(sell / csr, 1.0) << xeon.name;
  }
  const double knl_ratio =
      knl_gflops(ModelFormat::kSell, IsaTier::kAvx512) /
      knl_gflops(ModelFormat::kCsrBaseline, IsaTier::kScalar);
  EXPECT_GT(knl_ratio, 1.7);
}

TEST(SpmvModel, Figure11SkylakeAboutTwiceBroadwell) {
  const double sky = modeled_spmv_gflops(
      skylake(), MemoryMode::kFlatDram, skylake().cores,
      ModelFormat::kCsrBaseline, IsaTier::kScalar, kW2048);
  const double bdw = modeled_spmv_gflops(
      broadwell(), MemoryMode::kFlatDram, broadwell().cores,
      ModelFormat::kCsrBaseline, IsaTier::kScalar, kW2048);
  EXPECT_GT(sky / bdw, 1.4);
  EXPECT_LT(sky / bdw, 2.3);
}

TEST(SpmvModel, TierClampedToMachineIsa) {
  // Haswell has no AVX-512: requesting it must not beat its own AVX2.
  const double h512 = modeled_spmv_gflops(
      haswell(), MemoryMode::kFlatDram, 18, ModelFormat::kSell,
      IsaTier::kAvx512, kW2048);
  const double h2 = modeled_spmv_gflops(
      haswell(), MemoryMode::kFlatDram, 18, ModelFormat::kSell,
      IsaTier::kAvx2, kW2048);
  EXPECT_DOUBLE_EQ(h512, h2);
}

TEST(Multinode, Figure10SellBeatsCsrInMcdramModes) {
  for (MemoryMode mode : {MemoryMode::kCache, MemoryMode::kFlatMcdram}) {
    for (int nodes : {64, 128, 256, 512}) {
      const auto csr =
          modeled_multinode(knl7230(), mode, nodes,
                            ModelFormat::kCsrBaseline, IsaTier::kScalar);
      const auto sell = modeled_multinode(knl7230(), mode, nodes,
                                          ModelFormat::kSell,
                                          IsaTier::kAvx512);
      EXPECT_LT(sell.total_seconds, csr.total_seconds);
      // the MatMult share roughly halves (paper: ~2x kernel speedup)
      EXPECT_NEAR(csr.matmult_seconds / sell.matmult_seconds, 2.0, 0.5);
      // non-MatMult time is format independent
      EXPECT_NEAR(csr.total_seconds - csr.matmult_seconds,
                  sell.total_seconds - sell.matmult_seconds,
                  0.02 * csr.total_seconds);
    }
  }
}

TEST(Multinode, Figure10DramOnlyShowsMarginalGain) {
  const auto csr =
      modeled_multinode(knl7230(), MemoryMode::kFlatDram, 64,
                        ModelFormat::kCsrBaseline, IsaTier::kScalar);
  const auto sell = modeled_multinode(
      knl7230(), MemoryMode::kFlatDram, 64, ModelFormat::kSell,
      IsaTier::kAvx512);
  const double gain = csr.total_seconds / sell.total_seconds;
  EXPECT_LT(gain, 1.25);  // "just marginal improvement"
  EXPECT_GE(gain, 1.0);
}

TEST(Multinode, StrongScalingWithNodes) {
  const auto n64 = modeled_multinode(knl7230(), MemoryMode::kCache, 64,
                                     ModelFormat::kCsrBaseline,
                                     IsaTier::kScalar);
  const auto n512 = modeled_multinode(knl7230(), MemoryMode::kCache, 512,
                                      ModelFormat::kCsrBaseline,
                                      IsaTier::kScalar);
  EXPECT_LT(n512.total_seconds, n64.total_seconds);
  EXPECT_GT(n512.total_seconds, n64.total_seconds / 16.0);  // not perfect
}

TEST(CommModelFit, RecoversSyntheticAlphaBetaExactly) {
  // Powers of two keep every sum, mean and product of the fit exact, so
  // the recovered constants must equal the generating ones bit for bit.
  const double alpha = 0x1p-20;  // ~0.95 us
  const double beta = 0x1p-30;   // ~0.93 ns per byte
  std::vector<CommSample> samples;
  for (double bytes : {512.0, 1024.0, 1536.0, 2048.0, 2560.0}) {
    samples.push_back({bytes, alpha + beta * bytes});
  }
  const CommModel m = CommModel::fit(samples);
  EXPECT_EQ(m.alpha_s, alpha);
  EXPECT_EQ(m.beta_s_per_byte, beta);
}

TEST(CommModelFit, NegativeInterceptClampsAlphaToZero) {
  // The line through these points crosses zero time at 512 bytes.
  const CommModel m = CommModel::fit({{1024.0, 1e-6}, {2048.0, 3e-6}});
  EXPECT_EQ(m.alpha_s, 0.0);
  EXPECT_DOUBLE_EQ(m.beta_s_per_byte, 2e-6 / 1024.0);
}

TEST(CommModelFit, NegativeSlopeClampsBetaAndUsesTheMean) {
  const CommModel m =
      CommModel::fit({{1024.0, 3e-6}, {2048.0, 2e-6}, {4096.0, 1e-6}});
  EXPECT_EQ(m.beta_s_per_byte, 0.0);
  EXPECT_DOUBLE_EQ(m.alpha_s, 2e-6);
}

TEST(CommModelFit, FewerThanTwoSamplesThrows) {
  EXPECT_THROW(CommModel::fit({}), Error);
  EXPECT_THROW(CommModel::fit({{1024.0, 1e-6}}), Error);
}

TEST(Roofline, CeilingsMatchFigure9) {
  const RooflineCeilings c = knl_ceilings_fig9();
  EXPECT_DOUBLE_EQ(c.peak_gflops, 1018.4);
  EXPECT_DOUBLE_EQ(c.mem_gbs, 419.7);
  // at AI = 0.132 the MCDRAM roofline is ~55 Gflop/s
  EXPECT_NEAR(roofline_limit(c, 0.132), 55.4, 1.0);
}

TEST(Roofline, SellAvx512ApproachesMcdramCeiling) {
  // Figure 9: "the AVX-512 version of the sliced ELLPACK SpMV kernel has
  // pushed the baseline performance close to the MCDRAM roofline."
  const auto points = modeled_roofline_points();
  const RooflineCeilings c = knl_ceilings_fig9();
  double sell512 = 0.0, base = 0.0;
  for (const auto& pt : points) {
    if (pt.label == "SELL using AVX512") {
      sell512 = pt.gflops / roofline_limit(c, pt.ai);
    }
    if (pt.label == "CSR baseline") {
      base = pt.gflops / roofline_limit(c, pt.ai);
    }
  }
  EXPECT_GT(sell512, 0.7);   // close to the ceiling
  EXPECT_LT(sell512, 1.05);  // never above it
  EXPECT_LT(base, 0.5);      // baseline far below
}

TEST(Roofline, MeasuredPeakIsPositive) {
  const double peak = measured_peak_gflops(50);
  EXPECT_GT(peak, 0.5);  // any real machine beats 0.5 Gflop/s
}

TEST(Machine, Table1Profiles) {
  const auto machines = table1_machines();
  ASSERT_EQ(machines.size(), 4u);
  EXPECT_EQ(machines[3].name, "KNL 7230");
  EXPECT_EQ(machines[3].cores, 64);
  EXPECT_TRUE(machines[3].has_mcdram());
  EXPECT_FALSE(machines[0].has_mcdram());
  // Skylake supports AVX-512, Haswell/Broadwell do not
  EXPECT_EQ(machines[2].max_tier, IsaTier::kAvx512);
  EXPECT_EQ(machines[0].max_tier, IsaTier::kAvx2);
  for (const auto& m : machines) EXPECT_GT(m.peak_gflops(), 100.0);
}

}  // namespace
}  // namespace kestrel::perf
