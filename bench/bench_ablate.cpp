// The paper's design ablations, one function each, run in order:
//   §3.1  64-byte vs 16-byte alignment of the SELL arrays
//   §5.1  SELL slice height C
//   §5.3  SELL with vs without the ESB-style bit array
//   §5.4  SELL-C-σ sorting window
//   §5.5  outer-loop unrolling + software prefetch in the SELL kernel
//   §5.5/§7.2  hardware gather + FMA (AVX2) vs emulated gather (AVX)
//   SPC5  Talon β(r,c) block shape, forced r vs the inspector's choice
// Each prints its table of medians with the IQR, then what the paper
// expects.

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "base/aligned.hpp"
#include "base/rng.hpp"
#include "bench_common.hpp"
#include "mat/coo.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "simd/dispatch.hpp"
#include "simd/isa.hpp"

namespace {

using namespace kestrel;
using simd::IsaTier;

/// Power-law row lengths (1..64 nonzeros), uniformly scattered columns.
mat::Csr power_law_matrix(Index n) {
  Rng rng(3);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    const double u = rng.next_double();
    Index len = static_cast<Index>(1.0 + 4.0 / (0.05 + u));
    if (len > 64) len = 64;
    for (Index k = 0; k < len; ++k) {
      coo.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// Power-law row lengths (1..96 nonzeros), banded around the diagonal to
/// keep some locality.
mat::Csr irregular_matrix(Index n) {
  Rng rng(7);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    const double u = rng.next_double();
    Index len = static_cast<Index>(1.0 + 5.0 / (0.03 + u));
    if (len > 96) len = 96;
    for (Index k = 0; k < len; ++k) {
      const Index j =
          (i + rng.next_index(257) - 128 + n) % n;
      coo.add(i, j, rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// 6..14 nonzeros per row within a band of half-width 64.
mat::Csr mildly_irregular(Index n) {
  Rng rng(11);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    const Index len = 6 + rng.next_index(9);
    for (Index k = 0; k < len; ++k) {
      coo.add(i, (i + rng.next_index(129) - 64 + n) % n,
              rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// 6 uniformly scattered nonzeros per row.
mat::Csr scattered_matrix(Index n) {
  Rng rng(17);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index k = 0; k < 6; ++k) {
      coo.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// Samples the raw SELL kernel on a copy of the matrix whose val array is
/// displaced `offset` bytes from a cache-line boundary.
bench::Sample misaligned_sample(const mat::Sell& sell, std::size_t offset) {
  const std::size_t nelems = static_cast<std::size_t>(sell.stored_elements());
  AlignedBuffer<Scalar> val_buf(nelems + 8);
  AlignedBuffer<Index> idx_buf(nelems + 16);
  Scalar* val =
      reinterpret_cast<Scalar*>(reinterpret_cast<char*>(val_buf.data()) +
                                offset);
  Index* idx = reinterpret_cast<Index*>(
      reinterpret_cast<char*>(idx_buf.data()) + offset / 2);
  std::memcpy(val, sell.val(), nelems * sizeof(Scalar));
  std::memcpy(idx, sell.colidx(), nelems * sizeof(Index));

  mat::SellView view = sell.view();
  view.val = val;
  view.colidx = idx;

  auto fn = simd::lookup_as<simd::SellSpmvFn>(simd::Op::kSellSpmv,
                                              simd::detect_best_tier());
  const Vector x = bench::input_vector(sell.cols());
  Vector y(sell.rows());
  return bench::sample([&] { fn(view, x.data(), y.data()); }, 1,
                       bench::scaled_seconds(0.2));
}

void alignment() {
  const mat::Sell sell(bench::gray_scott_matrix(bench::scaled(384)));
  const bench::Sample t64 = misaligned_sample(sell, 0);
  const bench::Sample t16 = misaligned_sample(sell, 16);
  std::printf("%-28s %10.2f Gflop/s %s\n", "64-byte (cache line) aligned",
              bench::gflops(sell, t64.median), bench::spread(t64).c_str());
  std::printf("%-28s %10.2f Gflop/s %s\n", "16-byte aligned (PETSc default)",
              bench::gflops(sell, t16.median), bench::spread(t16).c_str());
  std::printf("penalty from misalignment: %+.1f%%\n",
              100.0 * (t16.median / t64.median - 1.0));
  std::printf(
      "\nExpected (paper): cache-line alignment avoids peel code and\n"
      "line-straddling vector loads; on KNL the 16-byte default even hung\n"
      "with aligned-load instructions. (Kestrel issues unaligned-load\n"
      "forms, so misalignment costs bandwidth, not correctness; modern\n"
      "cores show a smaller penalty than KNL did.)\n");
}

void slice_height() {
  const auto sweep = [](const char* label, const mat::Csr& csr) {
    std::printf("\n-- %s --\n", label);
    std::printf("%8s %12s %10s %6s %12s\n", "C", "fill ratio", "Gflop/s",
                "IQR", "kernel tier");
    for (Index c : {1, 2, 4, 8, 16, 32}) {
      mat::SellOptions opts;
      opts.slice_height = c;
      const mat::Sell sell(csr, opts);
      const bench::Sample t = bench::time_spmv(sell);
      std::printf("%8d %12.4f %10.2f %s %12s\n", c, sell.fill_ratio(),
                  bench::gflops(sell, t.median), bench::spread(t).c_str(),
                  simd::tier_name(sell.vector_tier()));
    }
  };
  sweep("gray-scott 320^2 (uniform 10/row)",
        bench::gray_scott_matrix(bench::scaled(320)));
  sweep("mildly irregular 80k", mildly_irregular(bench::scaled(80000, 1000)));
  std::printf(
      "\nExpected (paper): C = 8 — the 512-bit register height — is the\n"
      "sweet spot: full-width unmasked vectors with minimal padding.\n"
      "C < 8 can't fill a ZMM register; C > 8 pads more without adding\n"
      "parallelism.\n");
}

void bit_array() {
  const auto compare = [](const char* label, const mat::Csr& csr) {
    mat::SellOptions with_mask;
    with_mask.build_bitmask = true;
    const mat::Sell plain(csr);
    const mat::Sell masked(csr, with_mask);

    const bench::Sample t_plain = bench::time_spmv(plain);
    const Vector x = bench::input_vector(masked.cols());
    Vector y(masked.rows());
    const bench::Sample t_masked =
        bench::sample([&] { masked.spmv_bitmask(x.data(), y.data()); },
                      bench::scaled_reps(40), 0.0);
    std::printf("%-22s fill %.3f | no-bitarray %8.2f GF %s | bitarray "
                "%8.2f GF %s | no-bitarray is %+5.1f%%\n",
                label, plain.fill_ratio(),
                bench::gflops(plain, t_plain.median),
                bench::spread(t_plain).c_str(),
                bench::gflops(masked, t_masked.median),
                bench::spread(t_masked).c_str(),
                100.0 * (t_masked.median / t_plain.median - 1.0));
  };
  compare("gray-scott 384^2", bench::gray_scott_matrix(bench::scaled(384)));
  compare("power-law 100k", power_law_matrix(bench::scaled(100000, 1000)));
  std::printf(
      "\nExpected (paper): not using the bit array is ~10%% faster — the\n"
      "masked gathers/FMAs and the extra mask stream cost more than\n"
      "multiplying the padded zeros, and PDE matrices pad very little\n"
      "anyway.\n");
}

void sigma() {
  const struct {
    const char* label;
    mat::Csr matrix;
  } cases[] = {
      {"gray-scott 256^2 (uniform rows)",
       bench::gray_scott_matrix(bench::scaled(256))},
      {"irregular 60k (power-law rows)",
       irregular_matrix(bench::scaled(60000, 1000))},
  };
  for (const auto& c : cases) {
    std::printf("\n-- %s --\n", c.label);
    std::printf("%10s %12s %14s %10s %6s\n", "sigma", "fill ratio",
                "stored elems", "Gflop/s", "IQR");
    for (Index sigma : {1, 8, 64, 512, 1 << 20}) {
      mat::SellOptions opts;
      opts.sigma = std::min<Index>(sigma, c.matrix.rows());
      const mat::Sell sell(c.matrix, opts);
      const bench::Sample t = bench::time_spmv(sell);
      std::printf("%10d %12.4f %14lld %10.2f %s\n", opts.sigma,
                  sell.fill_ratio(),
                  static_cast<long long>(sell.stored_elements()),
                  bench::gflops(sell, t.median), bench::spread(t).c_str());
    }
  }
  std::printf(
      "\nExpected (paper): sorting buys nothing on uniform-row PDE\n"
      "matrices (fill is already ~1) and trades padding for permutation\n"
      "overhead and lost locality on irregular ones — supporting the\n"
      "paper's default of no sorting in the kernel layer.\n");
}

void prefetch() {
  std::printf("%-18s %10s %6s %14s %6s %10s\n", "matrix", "plain GF",
              "IQR", "unroll+pf GF", "IQR", "delta");
  for (Index n : {256, 384, 512}) {
    const mat::Sell sell(
        bench::gray_scott_matrix(bench::scaled(n, n / 16)));
    const bench::Sample t_plain = bench::time_spmv(sell);
    const Vector x = bench::input_vector(sell.cols());
    Vector y(sell.rows());
    const bench::Sample t_pf =
        bench::sample([&] { sell.spmv_prefetch(x.data(), y.data()); }, 1,
                      bench::scaled_seconds(0.2));
    std::printf("gray-scott %4d^2 %10.2f %s %14.2f %s %+9.1f%%\n", n,
                bench::gflops(sell, t_plain.median),
                bench::spread(t_plain).c_str(),
                bench::gflops(sell, t_pf.median), bench::spread(t_pf).c_str(),
                100.0 * (t_plain.median / t_pf.median - 1.0));
  }
  std::printf(
      "\nExpected (paper): no significant effect — the kernel is dominated\n"
      "by the gather and the memory stream, which hardware prefetchers\n"
      "already track well for this layout.\n");
}

void gather() {
  if (!simd::cpu_supports(IsaTier::kAvx2)) {
    std::printf("host lacks AVX2; nothing to compare\n");
    return;
  }
  const mat::Csr csr = bench::gray_scott_matrix(bench::scaled(384));
  std::printf("%-10s %16s %6s %16s %6s %10s\n", "format", "AVX (emul) GF",
              "IQR", "AVX2 (hw) GF", "IQR", "AVX/AVX2");
  const auto compare = [](const char* label, mat::Matrix& avx,
                          mat::Matrix& avx2) {
    avx.set_tier(IsaTier::kAvx);
    avx2.set_tier(IsaTier::kAvx2);
    const bench::Sample t1 = bench::time_spmv(avx);
    const bench::Sample t2 = bench::time_spmv(avx2);
    std::printf("%-10s %16.2f %s %16.2f %s %9.2fx\n", label,
                bench::gflops(avx, t1.median), bench::spread(t1).c_str(),
                bench::gflops(avx2, t2.median), bench::spread(t2).c_str(),
                t2.median / t1.median);
  };
  {
    mat::Csr avx = csr, avx2 = csr;
    compare("CSR", avx, avx2);
  }
  mat::Sell avx(csr), avx2(csr);
  compare("SELL", avx, avx2);
  std::printf(
      "\nExpected (paper, on KNL): CSR regresses going AVX -> AVX2 (the\n"
      "FMA in iteration i waits for iteration i-1's FMA in the same row\n"
      "reduction); SELL's independent per-lane accumulators make AVX and\n"
      "AVX2 roughly comparable. Hosts with slow gather units amplify the\n"
      "effect.\n");
}

void block_shape() {
  const auto sweep = [](const char* label, const mat::Csr& csr) {
    std::printf("\n-- %s (%d rows, %lld nnz) --\n", label, csr.rows(),
                static_cast<long long>(csr.nnz()));
    std::printf("%8s %10s %10s %10s %10s %6s %12s\n", "r", "panels",
                "blocks", "fill", "Gflop/s", "IQR", "bytes/nnz");
    for (Index force_r : {Index(0), Index(1), Index(2), Index(4)}) {
      mat::TalonOptions opts;
      opts.force_r = force_r;
      const mat::Talon talon(csr, opts);
      const bench::Sample t = bench::time_spmv(talon);
      const std::string rlabel =
          force_r == 0 ? "auto" : std::to_string(force_r);
      std::printf("%8s %10d %10lld %10.4f %10.2f %s %12.2f\n",
                  rlabel.c_str(), talon.num_panels(),
                  static_cast<long long>(talon.num_blocks()),
                  talon.block_fill(), bench::gflops(talon, t.median),
                  bench::spread(t).c_str(),
                  static_cast<double>(talon.spmv_traffic_bytes()) /
                      static_cast<double>(talon.nnz()));
    }
  };
  sweep("gray-scott 384^2 (2x2 dof blocks)",
        bench::gray_scott_matrix(bench::scaled(384)));
  sweep("scattered 60k (6 random nnz/row)",
        scattered_matrix(bench::scaled(60000, 1000)));
  std::printf(
      "\nExpected: on block-structured matrices (Gray-Scott's 2x2 dof\n"
      "coupling) r = 2/4 cuts the block count and metadata stream; on\n"
      "scattered patterns tall panels produce near-empty blocks and r = 1\n"
      "wins. \"auto\" should track the better of the two everywhere — that\n"
      "is the inspector's job.\n");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_args(argc, argv);
  const struct {
    const char* title;
    void (*run)();
  } ablations[] = {
      {"Ablation 3.1: 64-byte vs 16-byte alignment of SELL data", alignment},
      {"Ablation 5.1: SELL slice height sweep", slice_height},
      {"Ablation 5.3: SELL bit-array (ESB-style masks) vs plain padding",
       bit_array},
      {"Ablation 5.4: SELL-C-sigma sorting window sweep", sigma},
      {"Ablation 5.5: SELL AVX-512 with outer unroll + software prefetch",
       prefetch},
      {"Ablation 5.5/7.2: hardware gather+FMA (AVX2) vs emulated gather "
       "with separate mul/add (AVX)",
       gather},
      {"Ablation: Talon beta(r,c) block-shape sweep", block_shape},
  };
  for (const auto& a : ablations) {
    bench::header(a.title);
    a.run();
  }
  return 0;
}
