// Poisson solve with geometric multigrid: -∇²u = f on the unit square with
// homogeneous Dirichlet boundary, manufactured solution
// u = sin(pi x) sin(pi y), demonstrating h-independent MG convergence and
// discretization-order error decay.
//
//   ./poisson_multigrid [-n 63] [-pc_mg_levels 4]
//                       [-mat_type sell|csr|csrperm|bcsr|talon]
//                       [-mat_scalar fp64|fp32]

#include <cmath>
#include <cstdio>

#include "app/laplacian.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "mat/convert.hpp"
#include "mat/coo.hpp"
#include "mat/slim.hpp"
#include "pc/mg.hpp"

using namespace kestrel;

namespace {

// Full-weighting bilinear interpolation for the interior Dirichlet grid
// (nf = 2*nc + 1 interior points per dimension).
mat::Csr interpolation(Index nf) {
  const Index nc = (nf - 1) / 2;
  mat::Coo p(nf * nf, nc * nc);
  for (Index cj = 0; cj < nc; ++cj) {
    for (Index ci = 0; ci < nc; ++ci) {
      const Index fi = 2 * ci + 1;
      const Index fj = 2 * cj + 1;
      for (Index dj = -1; dj <= 1; ++dj) {
        for (Index di = -1; di <= 1; ++di) {
          const Index ii = fi + di;
          const Index jj = fj + dj;
          if (ii < 0 || ii >= nf || jj < 0 || jj >= nf) continue;
          p.add(jj * nf + ii, cj * nc + ci,
                (di == 0 ? 1.0 : 0.5) * (dj == 0 ? 1.0 : 0.5));
        }
      }
    }
  }
  return p.to_csr();
}

}  // namespace

int main(int argc, char** argv) try {
  Options::global().parse(argc, argv);
  const Index n = Options::global().get_index("n", 63);
  const int levels = Options::global().get_index("pc_mg_levels", 4);
  const std::string mat_type(mat::canonical_format(
      Options::global().get_string("mat_type", "sell")));

  std::printf("Poisson on %dx%d interior grid, %d-level multigrid, "
              "operators in %s\n",
              n, n, levels, mat_type.c_str());

  const mat::Csr a = app::laplacian_dirichlet(n, n);
  std::vector<mat::Csr> interps;
  Index sz = n;
  for (int l = 0; l + 1 < levels && sz >= 7; ++l) {
    interps.push_back(interpolation(sz));
    sz = (sz - 1) / 2;
  }
  // Kestrel Slim: -mat_scalar fp32 stores the MG level operators' values
  // in fp32; CG keeps multiplying the double operator `a`.
  const mat::SlimOptions slim = mat::slim_options_from(Options::global());
  pc::Multigrid::Options mg_opts;
  // One unknown per grid point: bcsr uses 1x1 blocks.
  const pc::Multigrid::FormatFactory factory =
      [&mat_type, slim](const mat::Csr& lvl) -> mat::MatrixPtr {
    const std::shared_ptr<mat::Matrix> op = mat::convert(lvl, mat_type, 1);
    op->set_slim(slim);
    return op;
  };
  const pc::Multigrid mg(a, std::move(interps), mg_opts, factory);
  std::printf("hierarchy: %d levels, coarsest %d unknowns\n",
              mg.num_levels(),
              mg.level_operator(mg.num_levels() - 1).rows());

  // manufactured solution and right-hand side f = 2 pi^2 sin(pi x) sin(pi y)
  const Scalar h = 1.0 / (n + 1);
  Vector b(a.rows()), exact(a.rows());
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const Scalar x = (i + 1) * h;
      const Scalar y = (j + 1) * h;
      exact[j * n + i] = std::sin(M_PI * x) * std::sin(M_PI * y);
      b[j * n + i] =
          2.0 * M_PI * M_PI * std::sin(M_PI * x) * std::sin(M_PI * y);
    }
  }

  Vector u(a.rows());
  ksp::Settings settings;
  settings.rtol = 1e-10;
  settings.monitor = [](int it, Scalar r) {
    std::printf("  it %3d  residual %.3e\n", it, r);
  };
  const ksp::Cg cg(settings);
  ksp::SeqContext ctx(a, &mg);
  const ksp::SolveResult res = cg.solve(ctx, b, u);

  Vector err;
  err.waxpby(1.0, u, -1.0, exact);
  std::printf("CG+MG %s in %d iterations\n",
              res.converged ? "converged" : "FAILED", res.iterations);
  std::printf("discretization error ||u - u_exact||_inf = %.3e "
              "(expect O(h^2) = %.3e)\n",
              err.norm_inf(), h * h);
  return res.converged ? 0 : 1;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
