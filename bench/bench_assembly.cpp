// Paper sections 7.3/8: "the changes in the matrix representation result
// in implementation differences for certain matrix operations such as
// setting the nonzero entries and assembling the matrix. The corresponding
// routines ... are executed every time the Jacobian matrix is updated",
// and the conclusion claims "no noticeable performance penalty in other
// core operations needed by a practical PDE solver".
//
// This bench times the per-Newton-iteration matrix pipeline for each
// format: Jacobian evaluation written straight into CSR, conversion to
// the compute format, and the pattern-reuse value refresh that amortizes
// conversion after the first iteration.

#include <cstdio>

#include "prof/profiler.hpp"
#include "bench_common.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"

namespace {

using namespace kestrel;

template <class Fn>
double time_best(Fn&& fn, int reps = bench::scaled_reps(5)) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = wall_time();
    fn();
    const double dt = wall_time() - t0;
    best = dt < best ? dt : best;
  }
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace kestrel;
  bench::parse_args(argc, argv);
  bench::header(
      "Assembly & conversion overhead per Jacobian update (Gray-Scott "
      "256^2)");
  const Index n = bench::scaled(256);
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);

  const double t_jac = time_best([&] {
    volatile auto sink = gs.rhs_jacobian(u).nnz();
    (void)sink;
  });
  const mat::Csr csr = gs.rhs_jacobian(u);

  const double t_sell = time_best([&] {
    volatile auto sink = mat::Sell(csr).stored_elements();
    (void)sink;
  });
  const double t_perm = time_best([&] {
    volatile auto sink = mat::CsrPerm{mat::Csr(csr)}.num_groups();
    (void)sink;
  });
  const double t_bcsr = time_best([&] {
    volatile auto sink = mat::Bcsr(csr, 2).stored_blocks();
    (void)sink;
  });
  mat::Sell sell(csr);
  const double t_refresh = time_best([&] { sell.copy_values_from(csr); });

  const double t_spmv = bench::time_spmv(sell);

  std::printf("%-42s %10.2f ms\n", "Jacobian eval + direct CSR fill",
              1e3 * t_jac);
  std::printf("%-42s %10.2f ms\n", "CSR -> SELL conversion (first time)",
              1e3 * t_sell);
  std::printf("%-42s %10.2f ms\n", "CSR -> CSRPerm conversion", 1e3 * t_perm);
  std::printf("%-42s %10.2f ms\n", "CSR -> BCSR(2) conversion", 1e3 * t_bcsr);
  std::printf("%-42s %10.2f ms\n",
              "SELL value refresh (pattern reuse)", 1e3 * t_refresh);
  std::printf("%-42s %10.3f ms\n", "one SELL SpMV (for scale)",
              1e3 * t_spmv);
  std::printf("\nSELL conversion == %.0f SpMVs; with pattern reuse the\n"
              "per-iteration cost drops to %.0f SpMVs — small against the\n"
              "tens of Krylov iterations each Jacobian is used for, which\n"
              "is why the paper reports no noticeable penalty in the\n"
              "non-SpMV parts of the solver.\n",
              t_sell / t_spmv, t_refresh / t_spmv);
  return 0;
}
