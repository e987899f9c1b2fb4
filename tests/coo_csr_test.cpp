// COO assembly and CSR format tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "base/error.hpp"
#include "mat/coo.hpp"
#include "mat/csr.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

TEST(Coo, DuplicatesAreSummed) {
  Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(0, 0, 2.5);
  coo.add(1, 1, -1.0);
  const Csr a = coo.to_csr();
  EXPECT_EQ(a.nnz(), 2);
  EXPECT_DOUBLE_EQ(a.at(0, 0), 3.5);
  EXPECT_DOUBLE_EQ(a.at(1, 1), -1.0);
}

TEST(Coo, CancellationKeptUnlessDropped) {
  Coo coo(1, 2);
  coo.add(0, 1, 2.0);
  coo.add(0, 1, -2.0);
  EXPECT_EQ(coo.to_csr(false).nnz(), 1);  // explicit zero retained
  EXPECT_EQ(coo.to_csr(true).nnz(), 0);
}

TEST(Coo, BlockInsertion) {
  Coo coo(4, 4);
  const Scalar block[] = {1.0, 2.0, 3.0, 4.0};
  coo.add_block(2, 0, 2, 2, block);
  const Csr a = coo.to_csr();
  EXPECT_DOUBLE_EQ(a.at(2, 0), 1.0);
  EXPECT_DOUBLE_EQ(a.at(2, 1), 2.0);
  EXPECT_DOUBLE_EQ(a.at(3, 0), 3.0);
  EXPECT_DOUBLE_EQ(a.at(3, 1), 4.0);
}

TEST(Coo, ColumnsSortedWithinRows) {
  Coo coo(1, 10);
  coo.add(0, 7, 1.0);
  coo.add(0, 2, 1.0);
  coo.add(0, 5, 1.0);
  const Csr a = coo.to_csr();
  const auto cols = a.row_cols(0);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0], 2);
  EXPECT_EQ(cols[1], 5);
  EXPECT_EQ(cols[2], 7);
}

template <class T>
AlignedBuffer<T> aligned(const std::vector<T>& v) {
  AlignedBuffer<T> out(v.size());
  std::copy(v.begin(), v.end(), out.begin());
  return out;
}

TEST(Csr, ValidationCatchesBadStructure) {
  // The vector constructor and the adopting factory reject the same inputs.
  struct Case {
    const char* what;
    Index m, n;
    std::vector<Index> rowptr, colidx;
    std::vector<Scalar> val;
  };
  const Case cases[] = {
      {"negative dimension", -1, 1, {0}, {}, {}},
      {"rowptr not starting at zero", 1, 1, {1, 1}, {}, {}},
      {"rowptr not monotone", 2, 2, {0, 2, 1}, {0, 1}, {1.0, 1.0}},
      {"column out of range", 1, 2, {0, 1}, {5}, {1.0}},
      {"negative column", 1, 2, {0, 1}, {-1}, {1.0}},
      {"unsorted columns in a row", 1, 3, {0, 2}, {2, 0}, {1.0, 1.0}},
      {"duplicate column in a row", 1, 3, {0, 2}, {1, 1}, {1.0, 1.0}},
      {"empty rowptr", 0, 0, {}, {}, {}},
      {"rowptr too short", 2, 2, {0, 1}, {0}, {1.0}},
      {"rowptr too long", 1, 2, {0, 1, 1}, {0}, {1.0}},
      {"colidx shorter than rowptr[m]", 1, 3, {0, 2}, {1}, {1.0, 1.0}},
      {"colidx longer than rowptr[m]", 1, 3, {0, 1}, {0, 1}, {1.0}},
      {"val shorter than colidx", 1, 3, {0, 2}, {0, 1}, {1.0}},
      {"val longer than colidx", 1, 3, {0, 1}, {0}, {1.0, 1.0}},
  };
  for (const Case& c : cases) {
    EXPECT_THROW(Csr(c.m, c.n, c.rowptr, c.colidx, c.val), Error) << c.what;
    EXPECT_THROW(Csr::adopt(c.m, c.n, aligned(c.rowptr), aligned(c.colidx),
                            aligned(c.val)),
                 Error)
        << c.what;
  }
}

TEST(Csr, AdoptTakesTheBuffersWithoutCopying) {
  AlignedBuffer<Index> rowptr = aligned<Index>({0, 2, 3});
  AlignedBuffer<Index> colidx = aligned<Index>({0, 1, 1});
  AlignedBuffer<Scalar> val = aligned<Scalar>({1.0, 2.0, 3.0});
  const Index* cols = colidx.data();
  const Scalar* vals = val.data();
  const Csr a =
      Csr::adopt(2, 2, std::move(rowptr), std::move(colidx), std::move(val));
  EXPECT_EQ(a.colidx(), cols);
  EXPECT_EQ(a.val(), vals);
  EXPECT_TRUE(
      testing::bitwise_equal(a, Csr(2, 2, {0, 2, 3}, {0, 1, 1}, {1.0, 2.0, 3.0})));
}

TEST(Csr, EmptyMatrixIsValid) {
  const Csr a(0, 0, {0}, {}, {});
  EXPECT_EQ(a.nnz(), 0);
  Vector x, y;
  EXPECT_NO_THROW(a.spmv(x, y));
}

TEST(Csr, AtFindsEntries) {
  const Csr a = testing::banded(10, {-1, 1});
  EXPECT_NE(a.at(5, 5), 0.0);
  EXPECT_NE(a.at(5, 6), 0.0);
  EXPECT_DOUBLE_EQ(a.at(5, 8), 0.0);
  EXPECT_THROW(a.at(10, 0), Error);
}

TEST(Csr, TransposeInvolution) {
  const Csr a = testing::uniform_random(20, 15, 4);
  const Csr att = a.transpose().transpose();
  ASSERT_EQ(att.rows(), a.rows());
  ASSERT_EQ(att.nnz(), a.nnz());
  for (Index i = 0; i < a.rows(); ++i) {
    const auto c1 = a.row_cols(i);
    const auto c2 = att.row_cols(i);
    ASSERT_EQ(c1.size(), c2.size());
    for (std::size_t k = 0; k < c1.size(); ++k) {
      EXPECT_EQ(c1[k], c2[k]);
      EXPECT_DOUBLE_EQ(a.row_vals(i)[k], att.row_vals(i)[k]);
    }
  }
}

TEST(Csr, TransposeMovesEntries) {
  Coo coo(2, 3);
  coo.add(0, 2, 5.0);
  coo.add(1, 0, 7.0);
  const Csr t = coo.to_csr().transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_DOUBLE_EQ(t.at(2, 0), 5.0);
  EXPECT_DOUBLE_EQ(t.at(0, 1), 7.0);
}

TEST(Csr, ExtractSubmatrix) {
  const Csr a = testing::banded(10, {-1, 1});
  const Csr sub = a.extract({2, 3, 4}, {2, 3, 4});
  EXPECT_EQ(sub.rows(), 3);
  EXPECT_EQ(sub.cols(), 3);
  EXPECT_DOUBLE_EQ(sub.at(0, 0), a.at(2, 2));
  EXPECT_DOUBLE_EQ(sub.at(1, 2), a.at(3, 4));
}

TEST(Csr, MaxRowNnz) {
  const Csr a = testing::with_dense_row(16);
  EXPECT_EQ(a.max_row_nnz(), 16);
}

TEST(Csr, GetDiagonal) {
  const Csr a = testing::banded(8, {-1, 1});
  Vector d;
  a.get_diagonal(d);
  ASSERT_EQ(d.size(), 8);
  for (Index i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(d[i], a.at(i, i));
}

TEST(Csr, SpmvMatchesDenseReference) {
  const Csr a = testing::banded(37, {-3, -1, 1, 3});
  const auto x = testing::random_x(37);
  const auto expect = testing::dense_spmv(a, x);
  Vector xv(37), yv;
  for (Index i = 0; i < 37; ++i) xv[i] = x[static_cast<std::size_t>(i)];
  a.spmv(xv, yv);
  for (Index i = 0; i < 37; ++i) {
    EXPECT_NEAR(yv[i], expect[static_cast<std::size_t>(i)], 1e-12);
  }
}

TEST(Csr, SpmvAliasingRejected) {
  const Csr a = testing::banded(8, {-1, 1});
  Vector x(8, 1.0);
  EXPECT_THROW(a.spmv(x, x), Error);
}

TEST(Csr, StorageBytesAccountsAllArrays) {
  const Csr a = testing::banded(10, {-1, 1});
  const std::size_t expected = (10 + 1) * sizeof(Index) +
                               static_cast<std::size_t>(a.nnz()) *
                                   (sizeof(Index) + sizeof(Scalar));
  EXPECT_EQ(a.storage_bytes(), expected);
}

}  // namespace
}  // namespace kestrel::mat
