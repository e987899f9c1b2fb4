// Sparse matrix product / add / Galerkin tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "app/gray_scott.hpp"
#include "base/error.hpp"
#include "mat/dense.hpp"
#include "mat/spgemm.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

Dense dense_product(const Csr& a, const Csr& b) {
  Dense da = Dense::from_csr(a);
  Dense db = Dense::from_csr(b);
  Dense out(a.rows(), b.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index j = 0; j < b.cols(); ++j) {
      Scalar sum = 0.0;
      for (Index k = 0; k < a.cols(); ++k) {
        sum += da.at(i, k) * db.at(k, j);
      }
      out.at(i, j) = sum;
    }
  }
  return out;
}

void expect_equals_dense(const Csr& c, const Dense& ref, Scalar tol) {
  ASSERT_EQ(c.rows(), ref.rows());
  ASSERT_EQ(c.cols(), ref.cols());
  for (Index i = 0; i < c.rows(); ++i) {
    for (Index j = 0; j < c.cols(); ++j) {
      EXPECT_NEAR(c.at(i, j), ref.at(i, j), tol) << i << "," << j;
    }
  }
}

TEST(Spgemm, MatchesDenseProduct) {
  const Csr a = testing::uniform_random(14, 10, 3, 1);
  const Csr b = testing::uniform_random(10, 17, 4, 2);
  expect_equals_dense(spgemm(a, b), dense_product(a, b), 1e-12);
}

TEST(Spgemm, IdentityIsNeutral) {
  const Csr a = testing::banded(15, {-1, 1});
  const Csr i15 = identity(15);
  expect_equals_dense(spgemm(a, i15), Dense::from_csr(a), 0.0);
  expect_equals_dense(spgemm(i15, a), Dense::from_csr(a), 0.0);
}

TEST(Spgemm, DimensionMismatchThrows) {
  const Csr a = testing::banded(5, {-1, 1});
  const Csr b = testing::banded(6, {-1, 1});
  EXPECT_THROW(spgemm(a, b), Error);
}

TEST(Spgemm, AddMatchesDense) {
  const Csr a = testing::uniform_random(12, 12, 3, 3);
  const Csr b = testing::banded(12, {-2, 2});
  const Csr c = add(2.0, a, -0.5, b);
  const Dense da = Dense::from_csr(a);
  const Dense db = Dense::from_csr(b);
  for (Index i = 0; i < 12; ++i) {
    for (Index j = 0; j < 12; ++j) {
      EXPECT_NEAR(c.at(i, j), 2.0 * da.at(i, j) - 0.5 * db.at(i, j), 1e-13);
    }
  }
}

TEST(Spgemm, GalerkinPreservesSymmetry) {
  // A symmetric => P^T A P symmetric.
  Coo coo(8, 8);
  Rng rng(5);
  for (Index i = 0; i < 8; ++i) {
    coo.add(i, i, 4.0);
    if (i + 1 < 8) {
      const Scalar v = rng.uniform(-1.0, 1.0);
      coo.add(i, i + 1, v);
      coo.add(i + 1, i, v);
    }
  }
  const Csr a = coo.to_csr();
  // simple aggregation interpolation: 2 fine rows -> 1 coarse
  Coo pc(8, 4);
  for (Index i = 0; i < 8; ++i) pc.add(i, i / 2, 1.0);
  const Csr p = pc.to_csr();
  const Csr ac = galerkin(a, p, p.transpose());
  ASSERT_EQ(ac.rows(), 4);
  for (Index i = 0; i < 4; ++i) {
    for (Index j = 0; j < 4; ++j) {
      EXPECT_NEAR(ac.at(i, j), ac.at(j, i), 1e-13);
    }
  }
}

// Reference product: one Gustavson pass that grows its output row by row,
// with the same (ka, kb) accumulation order as spgemm.
Csr reference_spgemm(const Csr& a, const Csr& b) {
  std::vector<Index> rowptr{0};
  std::vector<Index> colidx;
  std::vector<Scalar> val;
  std::vector<Scalar> acc(static_cast<std::size_t>(b.cols()), 0.0);
  std::vector<Index> marker(static_cast<std::size_t>(b.cols()), -1);
  std::vector<Index> row_cols;
  for (Index i = 0; i < a.rows(); ++i) {
    row_cols.clear();
    for (std::size_t ka = 0; ka < a.row_cols(i).size(); ++ka) {
      const Index k = a.row_cols(i)[ka];
      for (std::size_t kb = 0; kb < b.row_cols(k).size(); ++kb) {
        const auto j = static_cast<std::size_t>(b.row_cols(k)[kb]);
        if (marker[j] != i) {
          marker[j] = i;
          acc[j] = 0.0;
          row_cols.push_back(static_cast<Index>(j));
        }
        acc[j] += a.row_vals(i)[ka] * b.row_vals(k)[kb];
      }
    }
    std::sort(row_cols.begin(), row_cols.end());
    for (Index j : row_cols) {
      colidx.push_back(j);
      val.push_back(acc[static_cast<std::size_t>(j)]);
    }
    rowptr.push_back(static_cast<Index>(colidx.size()));
  }
  return Csr(a.rows(), b.cols(), std::move(rowptr), std::move(colidx),
             std::move(val));
}

TEST(Spgemm, BitwiseMatchesReferenceGustavson) {
  const Csr empty_rows = testing::with_empty_rows(24);
  const Csr rect_a = testing::uniform_random(14, 10, 3, 1);
  const Csr rect_b = testing::uniform_random(10, 17, 4, 2);
  const struct {
    const char* what;
    Csr a, b;
  } cases[] = {
      {"rectangular", rect_a, rect_b},
      {"empty rows in A", empty_rows, testing::uniform_random(24, 9, 3, 5)},
      {"empty rows in B", testing::uniform_random(7, 24, 4, 6), empty_rows},
      {"empty rows in both", empty_rows, empty_rows},
      {"0-row A", Csr(0, 10, {0}, {}, {}), rect_b},
      {"inner dimension 0", Csr(3, 0, {0, 0, 0, 0}, {}, {}),
       Csr(0, 4, {0}, {}, {})},
      {"power-law rows", testing::power_law(40), testing::power_law(40, 9)},
  };
  for (const auto& c : cases) {
    EXPECT_TRUE(
        testing::bitwise_equal(spgemm(c.a, c.b), reference_spgemm(c.a, c.b)))
        << c.what;
  }
}

TEST(Spgemm, GalerkinChainBitwiseMatchesReference) {
  // The multigrid set-up products on a Gray-Scott Jacobian: R (A P).
  const app::GrayScott gs(16);
  Vector u;
  gs.initial_condition(u);
  Csr a = gs.rhs_jacobian(u);
  for (const Csr& p : app::gray_scott_interpolation_chain(gs.grid(), 3)) {
    const Csr r = p.transpose();
    const Csr ap = spgemm(a, p);
    ASSERT_TRUE(testing::bitwise_equal(ap, reference_spgemm(a, p)));
    a = spgemm(r, ap);
    ASSERT_TRUE(testing::bitwise_equal(a, reference_spgemm(r, ap)));
  }
}

TEST(Spgemm, ShiftIdentityInPlaceBitwiseMatchesAdd) {
  const app::GrayScott gs(8);
  Vector u;
  gs.initial_condition(u);
  // Zero entries of either sign exercise the signed-zero sums.
  Csr mixed = add(1.0, identity(30), 1.0, testing::uniform_random(30, 30, 4));
  for (Index k = 0; k < mixed.nnz(); k += 3) {
    mixed.mutable_val()[k] = k % 2 == 0 ? 0.0 : -0.0;
  }
  for (const Csr& j : {gs.rhs_jacobian(u), mixed}) {
    for (Scalar beta : {-0.5, 0.25, 0.0}) {
      Csr shifted = j;
      ASSERT_TRUE(shift_identity_in_place(beta, shifted));
      EXPECT_TRUE(
          testing::bitwise_equal(shifted, add(1.0, identity(j.rows()), beta, j)))
          << "beta " << beta;
    }
  }
}

TEST(Spgemm, ShiftIdentityInPlaceDeclinesWithoutEveryDiagonal) {
  // A row without its diagonal, empty rows, and a rectangular matrix: the
  // shift declines and leaves the matrix as it was.
  const Csr no_diag(3, 3, {0, 2, 3, 5}, {0, 1, 2, 0, 1}, {1, 2, 3, 4, 5});
  for (const Csr& j : {no_diag, testing::with_empty_rows(12),
                       testing::uniform_random(4, 6, 6)}) {
    Csr shifted = j;
    EXPECT_FALSE(shift_identity_in_place(-0.5, shifted));
    EXPECT_TRUE(testing::bitwise_equal(shifted, j));
  }
}

TEST(Spgemm, IdentityMatrix) {
  const Csr i5 = identity(5);
  EXPECT_EQ(i5.nnz(), 5);
  for (Index i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(i5.at(i, i), 1.0);
}

}  // namespace
}  // namespace kestrel::mat
