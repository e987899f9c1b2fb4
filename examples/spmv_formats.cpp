// Format and ISA tour: loads a matrix (generated Gray-Scott Jacobian by
// default, or any Matrix Market file), converts it to every Kestrel format,
// and times SpMV under every ISA tier this CPU supports — a miniature of
// the paper's Figure 8 for your own matrix.
//
//   ./spmv_formats [-n 256] [-file matrix.mtx] [-threads N]
//
// -threads N (or KESTREL_THREADS) runs every format's SpMV on the Kestrel
// Flock pool with N threads and nnz-balanced partitions.

#include <cstdio>

#include "app/gray_scott.hpp"
#include "base/error.hpp"
#include "prof/profiler.hpp"
#include "base/options.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/mm_io.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "par/pool.hpp"

using namespace kestrel;

namespace {

double time_spmv(const mat::Matrix& a) {
  Vector x(a.cols(), 1.0), y(a.rows());
  a.spmv(x.data(), y.data());
  double best = 1e300, spent = 0.0;
  while (spent < 0.1) {
    const double t0 = wall_time();
    a.spmv(x.data(), y.data());
    const double dt = wall_time() - t0;
    best = std::min(best, dt);
    spent += dt;
  }
  return best;
}

void report(const char* label, const mat::Matrix& a) {
  const double t = time_spmv(a);
  std::printf("%-22s %10.2f Gflop/s  %12zu bytes\n", label,
              2.0 * static_cast<double>(a.nnz()) / t / 1e9,
              a.storage_bytes());
}

}  // namespace

int main(int argc, char** argv) try {
  Options::global().parse(argc, argv);
  const std::string file = Options::global().get_string("file", "");
  mat::Csr csr = [&] {
    if (!file.empty()) {
      std::printf("loading %s\n", file.c_str());
      return mat::read_matrix_market_file(file);
    }
    const Index n = Options::global().get_index("n", 256);
    app::GrayScott gs(n);
    Vector u;
    gs.initial_condition(u);
    return gs.rhs_jacobian(u);
  }();
  std::printf("matrix: %d x %d, %lld nonzeros, max row %d\n\n", csr.rows(),
              csr.cols(), static_cast<long long>(csr.nnz()),
              csr.max_row_nnz());

  const simd::IsaTier best = simd::detect_best_tier();
  std::printf("CPU supports up to: %s, %d flock thread(s)\n\n",
              simd::tier_name(best), par::configured_threads());

  for (int ti = 0; ti <= static_cast<int>(best); ++ti) {
    const auto tier = static_cast<simd::IsaTier>(ti);
    std::printf("-- ISA tier: %s --\n", simd::tier_name(tier));
    mat::Csr c = csr;
    c.set_tier(tier);
    report("CSR (AIJ)", c);
    mat::Sell s(csr);
    s.set_tier(tier);
    report("SELL (sliced ELLPACK)", s);
    mat::CsrPerm p{mat::Csr(csr)};
    p.set_tier(tier);
    report("CSRPerm (AIJPERM)", p);
    if (csr.rows() == csr.cols() && csr.rows() % 2 == 0) {
      mat::Bcsr bcsr(csr, 2);
      bcsr.set_tier(tier);
      report("BCSR bs=2 (BAIJ)", bcsr);
    }
    mat::Talon talon(csr);
    talon.set_tier(tier);
    report("Talon (SPC5 blocks)", talon);
    std::printf("\n");
  }

  const mat::Sell sell(csr);
  std::printf("SELL details: %d slices of height %d, fill ratio %.4f, "
              "traffic %zu bytes vs CSR %zu\n",
              sell.num_slices(), sell.slice_height(), sell.fill_ratio(),
              sell.spmv_traffic_bytes(), csr.spmv_traffic_bytes());
  const mat::Talon talon(csr);
  std::printf("Talon details: %d panels (r=4: %d, r=2: %d, r=1: %d), "
              "%lld blocks, block fill %.4f, traffic %zu bytes\n",
              talon.num_panels(), talon.panels_with_r(4),
              talon.panels_with_r(2), talon.panels_with_r(1),
              static_cast<long long>(talon.num_blocks()), talon.block_fill(),
              talon.spmv_traffic_bytes());
  return 0;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
