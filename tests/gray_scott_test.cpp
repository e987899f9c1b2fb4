// Gray–Scott model tests: RHS correctness, Jacobian structure (the paper's
// "10 elements per row"), initial condition, interpolation chain.

#include <gtest/gtest.h>

#include "app/gray_scott.hpp"
#include "base/error.hpp"
#include "base/rng.hpp"
#include "mat/coo.hpp"
#include "mat/sell.hpp"
#include "test_matrices.hpp"

namespace kestrel::app {
namespace {

TEST(GrayScott, UniformStateIsEquilibrium) {
  const GrayScott gs(8);
  Vector u(gs.size());
  for (Index j = 0; j < 8; ++j) {
    for (Index i = 0; i < 8; ++i) {
      u[gs.grid().idx(i, j, 0)] = 1.0;
      u[gs.grid().idx(i, j, 1)] = 0.0;
    }
  }
  Vector f;
  gs.rhs(u, f);
  EXPECT_NEAR(f.norm_inf(), 0.0, 1e-14);
}

TEST(GrayScott, ReactionTermsMatchHandComputation) {
  // constant fields kill the diffusion term; check the reaction algebra
  const GrayScottParams p;
  const GrayScott gs(4, p);
  Vector state(gs.size());
  const Scalar u0 = 0.6, v0 = 0.3;
  for (Index j = 0; j < 4; ++j) {
    for (Index i = 0; i < 4; ++i) {
      state[gs.grid().idx(i, j, 0)] = u0;
      state[gs.grid().idx(i, j, 1)] = v0;
    }
  }
  Vector f;
  gs.rhs(state, f);
  const Scalar fu = -u0 * v0 * v0 + p.gamma * (1.0 - u0);
  const Scalar fv = u0 * v0 * v0 - (p.gamma + p.kappa) * v0;
  for (Index j = 0; j < 4; ++j) {
    for (Index i = 0; i < 4; ++i) {
      EXPECT_NEAR(f[gs.grid().idx(i, j, 0)], fu, 1e-14);
      EXPECT_NEAR(f[gs.grid().idx(i, j, 1)], fv, 1e-14);
    }
  }
}

TEST(GrayScott, JacobianHasTenElementsPerRow) {
  // Section 7: "Each row has 10 elements" — 5 stencil points x 2x2 blocks.
  const GrayScott gs(8);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  for (Index i = 0; i < jac.rows(); ++i) {
    EXPECT_EQ(jac.row_nnz(i), 10) << "row " << i;
  }
}

TEST(GrayScott, JacobianInSellHasNoPadding) {
  // Uniform 10-long rows: "When represented in the sliced ELLPACK format,
  // there are very few padded zeros" — here exactly none, because the
  // number of rows (2 * 8 * 8) is a multiple of the slice height.
  const GrayScott gs(8);
  Vector u;
  gs.initial_condition(u);
  const mat::Sell sell(gs.rhs_jacobian(u));
  EXPECT_DOUBLE_EQ(sell.fill_ratio(), 1.0);
}

TEST(GrayScott, InitialConditionShape) {
  const GrayScott gs(32);
  Vector u;
  gs.initial_condition(u);
  // background
  EXPECT_DOUBLE_EQ(gs.u_at(u, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(gs.v_at(u, 0, 0), 0.0);
  // seeded center square
  EXPECT_NEAR(gs.u_at(u, 16, 16), 0.5, 0.06);
  EXPECT_NEAR(gs.v_at(u, 16, 16), 0.25, 0.06);
  // all values physical
  for (Index i = 0; i < u.size(); ++i) {
    EXPECT_GE(u[i], 0.0);
    EXPECT_LE(u[i], 1.0);
  }
}

TEST(GrayScott, JacobianDiffusionSignsAndSymmetryOfPattern) {
  const GrayScott gs(6);
  Vector u;
  gs.initial_condition(u);
  const mat::Csr jac = gs.rhs_jacobian(u);
  const Grid2D& g = gs.grid();
  // u-u neighbor coupling = D1/h^2 > 0, and the pattern is symmetric
  const Scalar d1h2 = gs.params().d1 / (g.hx() * g.hx());
  EXPECT_NEAR(jac.at(g.idx(2, 2, 0), g.idx(3, 2, 0)), d1h2, 1e-12);
  EXPECT_NEAR(jac.at(g.idx(3, 2, 0), g.idx(2, 2, 0)), d1h2, 1e-12);
  // cross-component neighbor entries are structural zeros
  EXPECT_DOUBLE_EQ(jac.at(g.idx(2, 2, 0), g.idx(3, 2, 1)), 0.0);
}

// Reference assembly: every stencil entry added as a COO triplet and
// summed from +0.0 on conversion (PETSc ADD_VALUES semantics).
mat::Csr coo_jacobian(const GrayScott& gs, const Vector& state) {
  const Grid2D& g = gs.grid();
  const GrayScottParams& p = gs.params();
  const Scalar cx = 1.0 / (g.hx() * g.hx());
  const Scalar cy = 1.0 / (g.hy() * g.hy());
  mat::Coo coo(gs.size(), gs.size());
  for (Index j = 0; j < g.ny(); ++j) {
    for (Index i = 0; i < g.nx(); ++i) {
      const Scalar u = state[g.idx(i, j, 0)];
      const Scalar v = state[g.idx(i, j, 1)];
      const Index ru = g.idx(i, j, 0);
      const Index rv = g.idx(i, j, 1);
      const Scalar du_diag = -2.0 * p.d1 * (cx + cy);
      const Scalar dv_diag = -2.0 * p.d2 * (cx + cy);
      const struct {
        Index di, dj;
        Scalar wu, wv;
      } neighbors[] = {{-1, 0, p.d1 * cx, p.d2 * cx},
                       {+1, 0, p.d1 * cx, p.d2 * cx},
                       {0, -1, p.d1 * cy, p.d2 * cy},
                       {0, +1, p.d1 * cy, p.d2 * cy}};
      for (const auto& nb : neighbors) {
        coo.add(ru, g.idx(i + nb.di, j + nb.dj, 0), nb.wu);
        coo.add(ru, g.idx(i + nb.di, j + nb.dj, 1), 0.0);
        coo.add(rv, g.idx(i + nb.di, j + nb.dj, 0), 0.0);
        coo.add(rv, g.idx(i + nb.di, j + nb.dj, 1), nb.wv);
      }
      coo.add(ru, ru, du_diag - v * v - p.gamma);
      coo.add(ru, rv, -2.0 * u * v);
      coo.add(rv, ru, v * v);
      coo.add(rv, rv, dv_diag + 2.0 * u * v - (p.gamma + p.kappa));
    }
  }
  return coo.to_csr();
}

TEST(GrayScott, JacobianBitwiseMatchesCooAssembly) {
  // The initial condition has v = 0 outside the seeded square, where
  // -2uv is -0.0 and the summing assembly stores +0.0. The random states
  // add exact zeros of either sign and negative values.
  for (Index n : {4, 5, 8, 64}) {
    const GrayScott gs(n);
    Vector u;
    gs.initial_condition(u);
    EXPECT_TRUE(testing::bitwise_equal(gs.rhs_jacobian(u), coo_jacobian(gs, u)))
        << "initial condition, n = " << n;
    for (std::uint64_t seed : {1u, 2u, 3u}) {
      Rng rng(seed);
      for (Index i = 0; i < u.size(); ++i) {
        const double r = rng.next_double();
        u[i] = r < 0.2 ? 0.0 : r < 0.3 ? -0.0 : rng.uniform(-1.0, 1.0);
      }
      EXPECT_TRUE(
          testing::bitwise_equal(gs.rhs_jacobian(u), coo_jacobian(gs, u)))
          << "seed " << seed << ", n = " << n;
    }
  }
}

TEST(GrayScott, InterpolationChainShrinksToRequestedDepth) {
  const GrayScott gs(32);
  const auto chain = gray_scott_interpolation_chain(gs.grid(), 4);
  ASSERT_EQ(chain.size(), 3u);
  EXPECT_EQ(chain[0].rows(), 2 * 32 * 32);
  EXPECT_EQ(chain[0].cols(), 2 * 16 * 16);
  EXPECT_EQ(chain[2].cols(), 2 * 4 * 4);
  EXPECT_THROW(gray_scott_interpolation_chain(Grid2D(6, 6, 2), 3), Error);
}

TEST(GrayScott, TooSmallGridRejected) {
  EXPECT_THROW(GrayScott(2), Error);
}

}  // namespace
}  // namespace kestrel::app
