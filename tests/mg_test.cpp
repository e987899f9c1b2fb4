// Geometric multigrid tests: V-cycle contraction, h-independent CG/GMRES
// iteration counts, Galerkin operator structure, SELL-backed levels.

#include <gtest/gtest.h>

#include <cmath>

#include "app/grid2d.hpp"
#include "app/laplacian.hpp"
#include "ksp/context.hpp"
#include "mat/sell.hpp"
#include "mat/spgemm.hpp"
#include "pc/mg.hpp"
#include "test_matrices.hpp"

namespace kestrel::pc {
namespace {

// Interpolation chain for the Dirichlet Laplacian via aggregation of the
// periodic-grid builder is not applicable; build a simple 1D-tensor
// full-weighting interpolation for the interior grid instead.
mat::Csr dirichlet_interpolation(Index nf) {
  // fine interior grid nf x nf (nf odd + 1? use nf = 2*nc + 1)
  const Index nc = (nf - 1) / 2;
  mat::Coo p(nf * nf, nc * nc);
  auto fid = [nf](Index i, Index j) { return j * nf + i; };
  auto cid = [nc](Index i, Index j) { return j * nc + i; };
  for (Index cj = 0; cj < nc; ++cj) {
    for (Index ci = 0; ci < nc; ++ci) {
      const Index fi = 2 * ci + 1;
      const Index fj = 2 * cj + 1;
      for (Index dj = -1; dj <= 1; ++dj) {
        for (Index di = -1; di <= 1; ++di) {
          const Index ii = fi + di;
          const Index jj = fj + dj;
          if (ii < 0 || ii >= nf || jj < 0 || jj >= nf) continue;
          const Scalar w =
              (di == 0 ? 1.0 : 0.5) * (dj == 0 ? 1.0 : 0.5);
          p.add(fid(ii, jj), cid(ci, cj), w);
        }
      }
    }
  }
  return p.to_csr();
}

Multigrid make_mg(Index nf, int levels,
                  Multigrid::FormatFactory factory = nullptr) {
  const mat::Csr a = app::laplacian_dirichlet(nf, nf);
  std::vector<mat::Csr> interps;
  Index n = nf;
  for (int l = 0; l + 1 < levels; ++l) {
    interps.push_back(dirichlet_interpolation(n));
    n = (n - 1) / 2;
  }
  Multigrid::Options opts;
  return Multigrid(a, std::move(interps), opts, std::move(factory));
}

TEST(Multigrid, VCycleContractsError) {
  const Index nf = 31;
  const mat::Csr a = app::laplacian_dirichlet(nf, nf);
  Multigrid mg = make_mg(nf, 3);
  EXPECT_EQ(mg.num_levels(), 3);

  // Solve A x = b approximately by iterating x += MG(b - A x); measure the
  // error contraction per cycle.
  const Vector x_true = [&] {
    Vector v(a.rows());
    for (Index i = 0; i < v.size(); ++i) v[i] = std::sin(0.37 * i);
    return v;
  }();
  Vector b;
  a.spmv(x_true, b);
  Vector x(a.rows()), r(a.rows()), z;
  Scalar prev_err = x_true.norm2();
  for (int cycle = 0; cycle < 4; ++cycle) {
    a.spmv(x.data(), r.data());
    for (Index i = 0; i < r.size(); ++i) r[i] = b[i] - r[i];
    mg.apply(r, z);
    x.axpy(1.0, z);
    Vector err;
    err.waxpby(1.0, x, -1.0, x_true);
    const Scalar e = err.norm2();
    EXPECT_LT(e, 0.45 * prev_err);  // strong contraction per V-cycle
    prev_err = e;
  }
}

TEST(Multigrid, HIndependentIterationCounts) {
  // CG + MG should converge in roughly constant iterations across grid
  // sizes (the reason the paper's solver uses MG: "avoid the typical
  // increase in the number of iterations as the grid is refined").
  std::vector<int> iters;
  for (Index nf : {15, 31, 63}) {
    const mat::Csr a = app::laplacian_dirichlet(nf, nf);
    Multigrid mg = make_mg(nf, nf >= 63 ? 4 : 3);
    Vector b(a.rows(), 1.0);
    Vector x(a.rows());
    ksp::Settings settings;
    settings.rtol = 1e-8;
    const ksp::Cg cg(settings);
    ksp::SeqContext ctx(a, &mg);
    const auto res = cg.solve(ctx, b, x);
    ASSERT_TRUE(res.converged) << "nf=" << nf;
    iters.push_back(res.iterations);
  }
  EXPECT_LE(iters[2], iters[0] + 4);  // near-constant in h
  EXPECT_LE(iters[2], 15);
}

TEST(Multigrid, GalerkinCoarseOperatorsShrink) {
  Multigrid mg = make_mg(31, 3);
  EXPECT_GT(mg.level_operator(0).rows(), mg.level_operator(1).rows());
  EXPECT_GT(mg.level_operator(1).rows(), mg.level_operator(2).rows());
  // Under the default factory every level operator is the level's CSR.
  const auto* ac = dynamic_cast<const mat::Csr*>(&mg.level_operator(2));
  ASSERT_NE(ac, nullptr);
  // Galerkin coarse Laplacian stays symmetric
  for (Index i = 0; i < ac->rows(); ++i) {
    for (Index j : ac->row_cols(i)) {
      EXPECT_NEAR(ac->at(i, j), ac->at(j, i), 1e-12);
    }
  }
  // ... and holds the bits of P1^T (P0^T (A P0) P1) formed level by level.
  const mat::Csr p0 = dirichlet_interpolation(31);
  const mat::Csr p1 = dirichlet_interpolation(15);
  const mat::Csr a1 =
      mat::galerkin(app::laplacian_dirichlet(31, 31), p0, p0.transpose());
  const mat::Csr a2 = mat::galerkin(a1, p1, p1.transpose());
  ASSERT_EQ(ac->nnz(), a2.nnz());
  for (Index i = 0; i <= a2.rows(); ++i) {
    ASSERT_EQ(ac->rowptr()[i], a2.rowptr()[i]);
  }
  for (std::int64_t k = 0; k < a2.nnz(); ++k) {
    EXPECT_EQ(ac->colidx()[k], a2.colidx()[k]);
    EXPECT_EQ(ac->val()[k], a2.val()[k]);
  }
}

TEST(Multigrid, SellLevelsMatchCsrLevels) {
  // The format factory swaps every level operator to SELL; results must be
  // identical (up to roundoff) to CSR-backed multigrid.
  Multigrid mg_csr = make_mg(31, 3);
  Multigrid mg_sell = make_mg(31, 3, [](const mat::Csr& a) {
    return std::make_shared<const mat::Sell>(a);
  });
  EXPECT_EQ(mg_sell.level_operator(0).format_name(), "sell");

  Vector r(mg_csr.level_operator(0).rows());
  for (Index i = 0; i < r.size(); ++i) r[i] = std::cos(0.1 * i);
  Vector z1, z2;
  mg_csr.apply(r, z1);
  mg_sell.apply(r, z2);
  for (Index i = 0; i < r.size(); ++i) EXPECT_NEAR(z1[i], z2[i], 1e-10);
}

TEST(Multigrid, PeriodicGrayScottStyleHierarchy) {
  // Periodic 2-dof grid hierarchy via Grid2D::interpolation — the actual
  // shape used by the Gray–Scott solve. The shifted diffusion operator
  // (I - dt*theta*D∇²) is SPD and MG must handle the 2-dof interleaving.
  const app::Grid2D grid(16, 16, 2, 1.0, 1.0);
  const mat::Csr lap_u = app::laplacian_periodic(grid, 0, 1.0e-2);
  const mat::Csr lap_v = app::laplacian_periodic(grid, 1, 0.5e-2);
  const mat::Csr shifted = mat::add(
      1.0, mat::identity(grid.size()), -1.0,
      mat::add(1.0, lap_u, 1.0, lap_v));
  std::vector<mat::Csr> interps{grid.interpolation()};
  Multigrid::Options opts;
  Multigrid mg(shifted, std::move(interps), opts);

  Vector b(grid.size(), 1.0);
  Vector x(grid.size());
  ksp::Settings settings;
  settings.rtol = 1e-9;
  const ksp::Cg cg(settings);
  ksp::SeqContext ctx(shifted, &mg);
  const auto res = cg.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.iterations, 10);
}

TEST(Multigrid, InterpolationShapeMismatchRejected) {
  const mat::Csr a = app::laplacian_dirichlet(15, 15);
  std::vector<mat::Csr> bad{dirichlet_interpolation(31)};  // wrong size
  EXPECT_THROW(Multigrid(a, std::move(bad)), Error);
}

}  // namespace
}  // namespace kestrel::pc
