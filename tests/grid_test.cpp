// Grid2D indexing, coarsening and interpolation tests.

#include <gtest/gtest.h>

#include "app/grid2d.hpp"
#include "app/laplacian.hpp"
#include "base/error.hpp"
#include "mat/coo.hpp"
#include "test_matrices.hpp"

namespace kestrel::app {
namespace {

TEST(Grid2D, IndexingInterleavesDof) {
  const Grid2D g(4, 3, 2);
  EXPECT_EQ(g.size(), 24);
  EXPECT_EQ(g.idx(0, 0, 0), 0);
  EXPECT_EQ(g.idx(0, 0, 1), 1);
  EXPECT_EQ(g.idx(1, 0, 0), 2);
  EXPECT_EQ(g.idx(0, 1, 0), 8);
}

TEST(Grid2D, PeriodicWrapping) {
  const Grid2D g(5, 4);
  EXPECT_EQ(g.idx(-1, 0), g.idx(4, 0));
  EXPECT_EQ(g.idx(5, 0), g.idx(0, 0));
  EXPECT_EQ(g.idx(0, -1), g.idx(0, 3));
  EXPECT_EQ(g.idx(0, 4), g.idx(0, 0));
  EXPECT_EQ(g.idx(-6, -5), g.idx(4, 3));
}

TEST(Grid2D, SpacingFromDomain) {
  const Grid2D g(10, 20, 1, 2.5, 5.0);
  EXPECT_DOUBLE_EQ(g.hx(), 0.25);
  EXPECT_DOUBLE_EQ(g.hy(), 0.25);
  EXPECT_DOUBLE_EQ(g.x(4), 1.0);
}

TEST(Grid2D, CoarsenHalvesEachDimension) {
  const Grid2D g(16, 8, 2);
  const Grid2D c = g.coarsen();
  EXPECT_EQ(c.nx(), 8);
  EXPECT_EQ(c.ny(), 4);
  EXPECT_EQ(c.dof(), 2);
  EXPECT_DOUBLE_EQ(c.hx(), 2.0 * g.hx());

  const Grid2D odd(5, 4);
  EXPECT_FALSE(odd.can_coarsen());
  EXPECT_THROW(odd.coarsen(), Error);
}

TEST(Grid2D, InterpolationRowsSumToOne) {
  // Bilinear interpolation is a partition of unity on a periodic grid.
  const Grid2D g(8, 8, 2);
  const mat::Csr p = g.interpolation();
  EXPECT_EQ(p.rows(), g.size());
  EXPECT_EQ(p.cols(), g.coarsen().size());
  for (Index i = 0; i < p.rows(); ++i) {
    Scalar sum = 0.0;
    for (Scalar v : p.row_vals(i)) sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-14);
  }
}

TEST(Grid2D, InterpolationIsInjectionAtCoarsePoints) {
  const Grid2D g(8, 8);
  const Grid2D c = g.coarsen();
  const mat::Csr p = g.interpolation();
  for (Index cj = 0; cj < c.ny(); ++cj) {
    for (Index ci = 0; ci < c.nx(); ++ci) {
      const Index fine_row = g.idx(2 * ci, 2 * cj);
      EXPECT_EQ(p.row_nnz(fine_row), 1);
      EXPECT_DOUBLE_EQ(p.at(fine_row, c.idx(ci, cj)), 1.0);
    }
  }
}

TEST(Grid2D, InterpolationPreservesDofSeparation) {
  // No interpolation weight may couple different components.
  const Grid2D g(4, 4, 2);
  const Grid2D c = g.coarsen();
  const mat::Csr p = g.interpolation();
  for (Index j = 0; j < g.ny(); ++j) {
    for (Index i = 0; i < g.nx(); ++i) {
      for (Index comp = 0; comp < 2; ++comp) {
        for (Index col : p.row_cols(g.idx(i, j, comp))) {
          EXPECT_EQ(col % 2, comp);
        }
      }
    }
  }
  (void)c;
}

// Reference assembly: bilinear weights added as COO triplets, coinciding
// columns summed on conversion.
mat::Csr coo_interpolation(const Grid2D& g) {
  const Grid2D coarse = g.coarsen();
  mat::Coo p(g.size(), coarse.size());
  for (Index j = 0; j < g.ny(); ++j) {
    for (Index i = 0; i < g.nx(); ++i) {
      const Index ci = i / 2;
      const Index cj = j / 2;
      const bool ox = (i % 2) != 0;
      const bool oy = (j % 2) != 0;
      for (Index c = 0; c < g.dof(); ++c) {
        const Index row = g.idx(i, j, c);
        if (!ox && !oy) {
          p.add(row, coarse.idx(ci, cj, c), 1.0);
        } else if (ox && !oy) {
          p.add(row, coarse.idx(ci, cj, c), 0.5);
          p.add(row, coarse.idx(ci + 1, cj, c), 0.5);
        } else if (!ox && oy) {
          p.add(row, coarse.idx(ci, cj, c), 0.5);
          p.add(row, coarse.idx(ci, cj + 1, c), 0.5);
        } else {
          p.add(row, coarse.idx(ci, cj, c), 0.25);
          p.add(row, coarse.idx(ci + 1, cj, c), 0.25);
          p.add(row, coarse.idx(ci, cj + 1, c), 0.25);
          p.add(row, coarse.idx(ci + 1, cj + 1, c), 0.25);
        }
      }
    }
  }
  return p.to_csr();
}

TEST(Grid2D, InterpolationBitwiseMatchesCooAssembly) {
  // nx = 2 coarsens to a single node column, where both x neighbors wrap
  // onto one coarse node and their weights merge into one entry.
  for (Index nx : {2, 4, 6, 16}) {
    for (Index ny : {2, 4, 6}) {
      for (Index dof : {1, 2}) {
        const Grid2D g(nx, ny, dof);
        EXPECT_TRUE(
            testing::bitwise_equal(g.interpolation(), coo_interpolation(g)))
            << nx << "x" << ny << " dof " << dof;
      }
    }
  }
}

TEST(Grid2D, RejectsOversizedGrids) {
  // 2^31 unknowns exceed 32-bit indexing (paper: 16384^2 x 2 is near the
  // limit; 46341^2 with 1 dof is over it).
  EXPECT_THROW(Grid2D(46341, 46341), Error);
}

TEST(LaplacianDirichlet, StencilStructure) {
  const mat::Csr a = laplacian_dirichlet(3, 3);
  EXPECT_EQ(a.rows(), 9);
  // center node has 5 entries, corner has 3
  EXPECT_EQ(a.row_nnz(4), 5);
  EXPECT_EQ(a.row_nnz(0), 3);
  // row sums near the boundary are positive (Dirichlet elimination)
  Scalar sum = 0.0;
  for (Scalar v : a.row_vals(0)) sum += v;
  EXPECT_GT(sum, 0.0);
}

TEST(LaplacianPeriodic, RowsSumToZero) {
  const Grid2D g(6, 6, 2);
  const mat::Csr a = laplacian_periodic(g, 0, 3.0);
  for (Index i = 0; i < a.rows(); ++i) {
    Scalar sum = 0.0;
    for (Scalar v : a.row_vals(i)) sum += v;
    EXPECT_NEAR(sum, 0.0, 1e-12);
  }
  // component 1 rows are untouched
  EXPECT_EQ(a.row_nnz(g.idx(0, 0, 1)), 0);
}

TEST(LaplacianPeriodic, ConstantVectorInKernel) {
  const Grid2D g(8, 8);
  const mat::Csr a = laplacian_periodic(g, 0, 1.0);
  Vector ones(a.rows(), 1.0), y;
  a.spmv(ones, y);
  EXPECT_NEAR(y.norm_inf(), 0.0, 1e-12);
}

}  // namespace
}  // namespace kestrel::app
