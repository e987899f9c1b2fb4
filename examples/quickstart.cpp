// Quickstart: assemble a sparse matrix, convert it to the SELL format, do
// a vectorized SpMV, and solve a linear system with preconditioned CG.
//
//   ./quickstart [-n 64] [-mat_type sell|csr|csrperm|bcsr|talon]
//                [-spmv_isa avx512|avx2|avx|scalar]

#include <cstdio>

#include "app/laplacian.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "mat/convert.hpp"
#include "pc/jacobi.hpp"
#include "simd/isa.hpp"

using namespace kestrel;

int main(int argc, char** argv) try {
  Options::global().parse(argc, argv);
  const Index n = Options::global().get_index("n", 64);
  const std::string mat_type =
      Options::global().get_string("mat_type", "sell");

  // 1. Assemble a matrix. Any assembly goes through the COO builder; here
  //    we use the ready-made 2D Dirichlet Laplacian (SPD, 5-point stencil).
  const mat::Csr csr = app::laplacian_dirichlet(n, n);
  std::printf("assembled %d x %d Laplacian, %lld nonzeros\n", csr.rows(),
              csr.cols(), static_cast<long long>(csr.nnz()));

  // 2. Pick the compute format. SELL is the paper's vectorization-friendly
  //    sliced-ELLPACK format; the ISA tier is auto-detected (override with
  //    -spmv_isa). One unknown per grid point: bcsr uses 1x1 blocks.
  const std::shared_ptr<mat::Matrix> a = mat::convert(csr, mat_type, 1);
  std::printf("format: %s, ISA tier: %s\n", a->format_name().c_str(),
              simd::tier_name(a->tier()));

  // 3. SpMV.
  Vector x(a->cols(), 1.0), y;
  a->spmv(x, y);
  std::printf("||A*1||_2 = %.6f\n", y.norm2());

  // 4. Solve A u = b with Jacobi-preconditioned CG.
  Vector b(a->rows(), 1.0);
  Vector u(a->rows());
  const pc::Jacobi jacobi(*a);
  ksp::Settings settings;
  settings.rtol = 1e-8;
  settings.monitor = [](int it, Scalar rnorm) {
    if (it % 20 == 0) std::printf("  it %4d  residual %.3e\n", it, rnorm);
  };
  const ksp::Cg cg(settings);
  ksp::SeqContext ctx(*a, &jacobi);
  const ksp::SolveResult res = cg.solve(ctx, b, u);
  std::printf("CG %s in %d iterations, residual %.3e (%s)\n",
              res.converged ? "converged" : "FAILED", res.iterations,
              res.residual_norm, ksp::reason_name(res.reason));
  return res.converged ? 0 : 1;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
