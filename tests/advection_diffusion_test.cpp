// Advection-diffusion assembly and solve tests, plus the umbrella header.

#include <gtest/gtest.h>

#include "kestrel.hpp"  // umbrella header must compile standalone
#include "app/advection_diffusion.hpp"
#include "test_matrices.hpp"

namespace kestrel {
namespace {

TEST(AdvectionDiffusion, PureDiffusionMatchesLaplacian) {
  app::AdvectionDiffusionParams params;
  params.eps = 1.0;
  params.bx = 0.0;
  params.by = 0.0;
  const mat::Csr ad = app::advection_diffusion(8, params);
  const mat::Csr lap = app::laplacian_dirichlet(8, 8);
  ASSERT_EQ(ad.nnz(), lap.nnz());
  for (Index i = 0; i < ad.rows(); ++i) {
    for (Index j : ad.row_cols(i)) {
      EXPECT_NEAR(ad.at(i, j), lap.at(i, j), 1e-12);
    }
  }
}

TEST(AdvectionDiffusion, UpwindingFollowsVelocitySign) {
  app::AdvectionDiffusionParams params;
  params.eps = 1e-8;  // advection dominated so signs are visible
  params.bx = 1.0;
  params.by = 0.0;
  const mat::Csr a = app::advection_diffusion(5, params);
  // interior row: positive bx upwinds west (row-1 coefficient large
  // negative), east coefficient ~0
  const Index row = 2 * 5 + 2;
  EXPECT_LT(a.at(row, row - 1), -1.0);
  EXPECT_NEAR(a.at(row, row + 1), 0.0, 1e-6);
  EXPECT_GT(a.at(row, row), 1.0);
}

TEST(AdvectionDiffusion, RowSumsNonNegative) {
  // M-matrix structure: diagonal dominance (strict at boundaries)
  const mat::Csr a = app::advection_diffusion(10);
  for (Index i = 0; i < a.rows(); ++i) {
    Scalar sum = 0.0;
    for (Scalar v : a.row_vals(i)) sum += v;
    EXPECT_GE(sum, -1e-10);
  }
}

TEST(AdvectionDiffusion, GmresIluSolvesAdvectionDominated) {
  app::AdvectionDiffusionParams params;
  params.eps = 0.01;
  const mat::Csr a = app::advection_diffusion(24, params);
  const Vector b = app::advection_diffusion_rhs(24);
  Vector u(a.rows());
  const pc::Ilu0 ilu(a);
  ksp::Settings settings;
  settings.rtol = 1e-10;
  settings.max_iterations = 500;
  const ksp::Gmres gmres(settings);
  ksp::SeqContext ctx(a, &ilu);
  const auto res = gmres.solve(ctx, b, u);
  ASSERT_TRUE(res.converged);
  // the solution of an M-matrix system with positive rhs is positive
  for (Index i = 0; i < u.size(); ++i) EXPECT_GT(u[i], 0.0);
}

TEST(AdvectionDiffusion, SellAndCsrAgree) {
  const mat::Csr csr = app::advection_diffusion(16);
  const mat::Sell sell(csr);
  const auto x = testing::random_x(csr.cols(), 77);
  Vector xv(csr.cols()), y1, y2;
  for (Index i = 0; i < xv.size(); ++i) {
    xv[i] = x[static_cast<std::size_t>(i)];
  }
  csr.spmv(xv, y1);
  sell.spmv(xv, y2);
  for (Index i = 0; i < y1.size(); ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

}  // namespace
}  // namespace kestrel
