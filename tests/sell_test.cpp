// SELL format construction invariants, conversions and variants
// (bit array, sigma sorting, slice heights).

#include <gtest/gtest.h>

#include <cstring>

#include "base/error.hpp"
#include "mat/sell.hpp"
#include "simd/isa.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

void expect_same_matrix(const Csr& a, const Csr& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  ASSERT_EQ(a.nnz(), b.nnz());
  for (Index i = 0; i < a.rows(); ++i) {
    const auto c1 = a.row_cols(i);
    const auto c2 = b.row_cols(i);
    ASSERT_EQ(c1.size(), c2.size()) << "row " << i;
    for (std::size_t k = 0; k < c1.size(); ++k) {
      EXPECT_EQ(c1[k], c2[k]) << "row " << i;
      EXPECT_DOUBLE_EQ(a.row_vals(i)[k], b.row_vals(i)[k]) << "row " << i;
    }
  }
}

TEST(Sell, StructuralInvariants) {
  const Csr csr = testing::power_law(100);
  const Sell sell(csr);
  EXPECT_EQ(sell.slice_height(), 8);
  EXPECT_EQ(sell.num_slices(), (100 + 7) / 8);
  EXPECT_EQ(sell.nnz(), csr.nnz());
  EXPECT_GE(sell.stored_elements(), sell.nnz());
  EXPECT_GE(sell.fill_ratio(), 1.0);

  // sliceptr is monotone and multiples of c
  const Index* sp = sell.sliceptr();
  for (Index s = 0; s < sell.num_slices(); ++s) {
    EXPECT_LE(sp[s], sp[s + 1]);
    EXPECT_EQ((sp[s + 1] - sp[s]) % sell.slice_height(), 0);
  }
  // slice width equals the max rlen in the slice
  for (Index s = 0; s < sell.num_slices(); ++s) {
    Index maxlen = 0;
    for (Index lane = 0; lane < 8; ++lane) {
      const Index p = s * 8 + lane;
      if (p < sell.rows()) maxlen = std::max(maxlen, sell.rlen()[p]);
    }
    EXPECT_EQ((sp[s + 1] - sp[s]) / 8, maxlen);
  }
}

TEST(Sell, RlenMatchesCsr) {
  const Csr csr = testing::power_law(64);
  const Sell sell(csr);
  for (Index i = 0; i < 64; ++i) {
    EXPECT_EQ(sell.rlen()[i], csr.row_nnz(i));
  }
}

TEST(Sell, PaddedColumnIndicesAreValidAndLocal) {
  // Section 5.5: padding copies a column index the row already uses, so
  // gathers never touch memory the row does not reference.
  const Csr csr = testing::power_law(40);
  const Sell sell(csr);
  const Index c = sell.slice_height();
  for (Index s = 0; s < sell.num_slices(); ++s) {
    const Index base = sell.sliceptr()[s];
    const Index width = (sell.sliceptr()[s + 1] - base) / c;
    for (Index lane = 0; lane < c; ++lane) {
      const Index p = s * c + lane;
      const Index len = p < sell.rows() ? sell.rlen()[p] : 0;
      for (Index j = len; j < width; ++j) {
        const Index k = base + j * c + lane;
        EXPECT_DOUBLE_EQ(sell.val()[k], 0.0);
        const Index col = sell.colidx()[k];
        EXPECT_GE(col, 0);
        EXPECT_LT(col, sell.cols());
        if (len > 0) {
          // must equal one of the row's real columns (we use the last)
          EXPECT_EQ(col, csr.row_cols(p)[static_cast<std::size_t>(len - 1)]);
        }
      }
    }
  }
}

TEST(Sell, RoundTripsThroughCsr) {
  for (auto make : {+[] { return testing::banded(50, {-2, -1, 1, 2}); },
                    +[] { return testing::power_law(50); },
                    +[] { return testing::with_empty_rows(50); },
                    +[] { return testing::with_dense_row(50); }}) {
    const Csr csr = make();
    expect_same_matrix(Sell(csr).to_csr(), csr);
  }
}

TEST(Sell, RoundTripWithSigmaSorting) {
  const Csr csr = testing::power_law(100);
  SellOptions opts;
  opts.sigma = 32;
  const Sell sell(csr, opts);
  EXPECT_TRUE(sell.is_sorted());
  expect_same_matrix(sell.to_csr(), csr);
}

TEST(Sell, SigmaSortingReducesPadding) {
  const Csr csr = testing::power_law(512);
  const Sell plain(csr);
  SellOptions opts;
  opts.sigma = 64;
  const Sell sorted(csr, opts);
  EXPECT_LE(sorted.stored_elements(), plain.stored_elements());
}

TEST(Sell, SortedPermutationIsAPermutation) {
  const Csr csr = testing::power_law(70);
  SellOptions opts;
  opts.sigma = 16;
  const Sell sell(csr, opts);
  std::vector<bool> seen(70, false);
  for (Index p = 0; p < 70; ++p) {
    const Index r = sell.perm(p);
    ASSERT_GE(r, 0);
    ASSERT_LT(r, 70);
    EXPECT_FALSE(seen[static_cast<std::size_t>(r)]);
    seen[static_cast<std::size_t>(r)] = true;
  }
}

TEST(Sell, BitmaskMarksExactlyRealEntries) {
  const Csr csr = testing::power_law(30);
  SellOptions opts;
  opts.build_bitmask = true;
  const Sell sell(csr, opts);
  ASSERT_TRUE(sell.has_bitmask());
  const Index c = sell.slice_height();
  std::int64_t bits = 0;
  for (Index s = 0; s < sell.num_slices(); ++s) {
    const Index base = sell.sliceptr()[s];
    const Index width = (sell.sliceptr()[s + 1] - base) / c;
    for (Index j = 0; j < width; ++j) {
      const std::uint64_t mask = sell.view().bitmask[(base + j * c) / c];
      for (Index lane = 0; lane < c; ++lane) {
        const Index p = s * c + lane;
        const bool real = p < sell.rows() && j < sell.rlen()[p];
        EXPECT_EQ(((mask >> lane) & 1u) != 0, real);
        bits += ((mask >> lane) & 1u);
      }
    }
  }
  EXPECT_EQ(bits, sell.nnz());
}

TEST(Sell, BitmaskKernelTreatsTheTierAsACeiling) {
  // Only scalar and AVX-512 masked kernels exist. The AVX-512 one fuses
  // multiply and add and the scalar one does not, so a matrix set below
  // AVX-512 must multiply like the scalar tier, bit for bit.
  const Csr csr = testing::power_law(200);
  const std::vector<Scalar> x = testing::random_x(csr.cols());
  for (Index c : {8, 16}) {
    SellOptions opts;
    opts.slice_height = c;
    opts.build_bitmask = true;
    Sell scalar(csr, opts);
    scalar.set_tier(simd::IsaTier::kScalar);
    std::vector<Scalar> want(static_cast<std::size_t>(csr.rows()));
    scalar.spmv_bitmask(x.data(), want.data());
    for (simd::IsaTier tier : {simd::IsaTier::kAvx, simd::IsaTier::kAvx2}) {
      Sell sell(csr, opts);
      sell.set_tier(tier);
      std::vector<Scalar> got(want.size(), -1.0);
      sell.spmv_bitmask(x.data(), got.data());
      EXPECT_EQ(std::memcmp(got.data(), want.data(),
                            want.size() * sizeof(Scalar)),
                0)
          << "c=" << c << " tier " << simd::tier_name(tier);
    }
  }
}

TEST(Sell, SliceHeightVariants) {
  const Csr csr = testing::power_law(61);
  for (Index c : {1, 3, 4, 8, 16, 32}) {
    SellOptions opts;
    opts.slice_height = c;
    const Sell sell(csr, opts);
    EXPECT_EQ(sell.slice_height(), c);
    expect_same_matrix(sell.to_csr(), csr);
  }
  SellOptions bad;
  bad.slice_height = 65;
  EXPECT_THROW(Sell(csr, bad), Error);
  bad.slice_height = 0;
  EXPECT_THROW(Sell(csr, bad), Error);
}

TEST(Sell, SliceHeightOneIsCsrStorage) {
  // Section 2.5: C = 1 makes sliced ELLPACK identical to CSR — no padding.
  const Csr csr = testing::power_law(33);
  SellOptions opts;
  opts.slice_height = 1;
  const Sell sell(csr, opts);
  EXPECT_EQ(sell.stored_elements(), sell.nnz());
  EXPECT_DOUBLE_EQ(sell.fill_ratio(), 1.0);
}

TEST(Sell, GetDiagonal) {
  const Csr csr = testing::banded(20, {-1, 1});
  const Sell sell(csr);
  Vector d;
  sell.get_diagonal(d);
  for (Index i = 0; i < 20; ++i) EXPECT_DOUBLE_EQ(d[i], csr.at(i, i));
}

TEST(Sell, GetDiagonalWithSorting) {
  const Csr csr = testing::power_law(24);
  SellOptions opts;
  opts.sigma = 24;
  const Sell sell(csr, opts);
  Vector d;
  sell.get_diagonal(d);
  for (Index i = 0; i < 24; ++i) EXPECT_DOUBLE_EQ(d[i], csr.at(i, i));
}

TEST(Sell, EmptyMatrix) {
  const Csr csr(0, 0, {0}, {}, {});
  const Sell sell(csr);
  EXPECT_EQ(sell.num_slices(), 0);
  EXPECT_EQ(sell.stored_elements(), 0);
  Vector x, y;
  EXPECT_NO_THROW(sell.spmv(x, y));
}

TEST(Sell, UniformRowsHaveNoPadding) {
  // Gray–Scott-like: every row the same length -> fill ratio of exactly 1
  // when rows divide the slice height.
  const Csr csr = testing::uniform_random(64, 64, 1, 11);
  // uniform_random may merge duplicates; build strictly uniform instead
  Coo coo(64, 64);
  for (Index i = 0; i < 64; ++i) {
    coo.add(i, i, 2.0);
    coo.add(i, (i + 1) % 64, -1.0);
  }
  const Sell sell(coo.to_csr());
  EXPECT_DOUBLE_EQ(sell.fill_ratio(), 1.0);
}

TEST(Sell, TrafficModelBeatsCsr) {
  // Section 6: SELL moves 14 bytes per row less than CSR.
  const Csr csr = testing::banded(1000, {-1, 1});
  const Sell sell(csr);
  EXPECT_EQ(csr.spmv_traffic_bytes() - sell.spmv_traffic_bytes(),
            14u * 1000u);
}

}  // namespace
}  // namespace kestrel::mat
