// One storage walk per format (mat/walk.hpp). Csr, Sell and Talon compute
// their diagonal, column checksums, value refresh and CSR export through
// one shared routine each, over the format's one walk of its nonzeros.
// The references below are the per-format bodies those routines replaced,
// kept as bitwise oracles: every diagonal, checksum, refreshed value array
// and exported CSR must keep its bits, across Csr, Sell at c = 4, 8, 16,
// sigma = 1, 24, bitmask off and on, and Talon with the inspector and with
// forced r = 1, 2, 4, over the shared pattern zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"
#include "test_matrices.hpp"

namespace kestrel::mat {
namespace {

// --------------------------------------------------------------------------
// Reference bodies. Each refresh reference writes into a copy of the
// format's stored value array and returns it.
// --------------------------------------------------------------------------

void ref_checksum(const Csr& a, Vector& c) {
  c.resize(a.cols());
  c.set(0.0);
  const auto nz = static_cast<std::size_t>(a.nnz());
  for (std::size_t k = 0; k < nz; ++k) c[a.colidx()[k]] += a.val()[k];
}

std::vector<Scalar> ref_copy_values(const Csr& a, const Csr& other) {
  std::vector<Scalar> val(a.val(), a.val() + a.nnz());
  KESTREL_CHECK(other.rows() == a.rows() && other.cols() == a.cols() &&
                    other.nnz() == a.nnz(),
                "copy_values_from: shape mismatch");
  for (Index i = 0; i < a.rows(); ++i) {
    KESTREL_CHECK(other.rowptr()[i + 1] == a.rowptr()[i + 1],
                  "copy_values_from: pattern changed");
  }
  for (Index k = 0; k < static_cast<Index>(a.nnz()); ++k) {
    KESTREL_CHECK(other.colidx()[k] == a.colidx()[k],
                  "copy_values_from: pattern changed");
    val[static_cast<std::size_t>(k)] = other.val()[k];
  }
  return val;
}

void ref_checksum(const Sell& s, Vector& c) {
  c.resize(s.cols());
  c.set(0.0);
  const Index cc = s.slice_height();
  for (Index p = 0; p < s.rows(); ++p) {
    const Index base = s.sliceptr()[p / cc];
    for (Index j = 0; j < s.rlen()[p]; ++j) {
      const Index k = base + j * cc + p % cc;
      c[s.colidx()[k]] += s.val()[k];
    }
  }
}

void ref_diagonal(const Sell& s, Vector& d) {
  KESTREL_CHECK(s.rows() == s.cols(), "get_diagonal requires a square matrix");
  d.resize(s.rows());
  d.set(0.0);
  const Index cc = s.slice_height();
  for (Index p = 0; p < s.rows(); ++p) {
    const Index r = s.perm(p);
    const Index base = s.sliceptr()[p / cc];
    for (Index j = 0; j < s.rlen()[p]; ++j) {
      const Index k = base + j * cc + p % cc;
      if (s.colidx()[k] == r) {
        d[r] = s.val()[k];
        break;
      }
    }
  }
}

std::vector<Scalar> ref_copy_values(const Sell& s, const Csr& csr) {
  std::vector<Scalar> val(s.val(), s.val() + s.stored_elements());
  KESTREL_CHECK(csr.rows() == s.rows() && csr.cols() == s.cols() &&
                    csr.nnz() == s.nnz(),
                "copy_values_from: shape mismatch");
  const Index cc = s.slice_height();
  for (Index p = 0; p < s.rows(); ++p) {
    const Index r = s.perm(p);
    KESTREL_CHECK(csr.row_nnz(r) == s.rlen()[p],
                  "copy_values_from: row length changed");
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    const Index base = s.sliceptr()[p / cc];
    for (Index j = 0; j < s.rlen()[p]; ++j) {
      const Index k = base + j * cc + p % cc;
      KESTREL_CHECK(s.colidx()[k] == cols[static_cast<std::size_t>(j)],
                    "copy_values_from: sparsity pattern changed");
      val[static_cast<std::size_t>(k)] = vals[static_cast<std::size_t>(j)];
    }
  }
  return val;
}

Csr ref_to_csr(const Sell& s) {
  const Index m = s.rows();
  std::vector<Index> rowptr(static_cast<std::size_t>(m) + 1, 0);
  for (Index p = 0; p < m; ++p) {
    rowptr[static_cast<std::size_t>(s.perm(p)) + 1] = s.rlen()[p];
  }
  for (Index i = 0; i < m; ++i) {
    rowptr[static_cast<std::size_t>(i) + 1] +=
        rowptr[static_cast<std::size_t>(i)];
  }
  const auto total = static_cast<std::size_t>(rowptr.back());
  std::vector<Index> colidx(total);
  std::vector<Scalar> val(total);
  const Index cc = s.slice_height();
  for (Index p = 0; p < m; ++p) {
    const Index base = s.sliceptr()[p / cc];
    Index dst = rowptr[static_cast<std::size_t>(s.perm(p))];
    for (Index j = 0; j < s.rlen()[p]; ++j, ++dst) {
      const Index k = base + j * cc + p % cc;
      colidx[static_cast<std::size_t>(dst)] = s.colidx()[k];
      val[static_cast<std::size_t>(dst)] = s.val()[k];
    }
  }
  return Csr(m, s.cols(), std::move(rowptr), std::move(colidx),
             std::move(val));
}

/// Visits (row, col, value index) of every Talon entry in the packed order
/// — the loop nest all of Talon's former helper bodies repeated.
template <class F>
void ref_talon_loop(const TalonView& v, F&& f) {
  for (Index p = 0; p < v.npanels; ++p) {
    const Index row0 = v.panel_row[p];
    const Index r = v.panel_row[p + 1] - row0;
    Index k = v.panel_valptr[p];
    for (Index b = v.panel_blockptr[p]; b < v.panel_blockptr[p + 1]; ++b) {
      const Index c0 = v.block_col[b];
      const std::uint32_t mask = v.block_mask[b];
      for (Index j = 0; j < r; ++j) {
        std::uint32_t bits = (mask >> (8u * static_cast<unsigned>(j))) & 0xFFu;
        while (bits != 0) {
          f(row0 + j, c0 + std::countr_zero(bits), k);
          ++k;
          bits &= bits - 1;
        }
      }
    }
  }
}

void ref_checksum(const Talon& t, Vector& c) {
  const TalonView v = t.view();
  c.resize(v.n);
  c.set(0.0);
  ref_talon_loop(v, [&](Index, Index col, Index k) { c[col] += v.val[k]; });
}

void ref_diagonal(const Talon& t, Vector& d) {
  const TalonView v = t.view();
  KESTREL_CHECK(v.m == v.n, "get_diagonal requires a square matrix");
  d.resize(v.m);
  d.set(0.0);
  ref_talon_loop(v, [&](Index row, Index col, Index k) {
    if (col == row) d[row] = v.val[k];
  });
}

std::vector<Scalar> ref_copy_values(const Talon& t, const Csr& csr) {
  const TalonView v = t.view();
  std::vector<Scalar> val(v.val, v.val + t.nnz());
  KESTREL_CHECK(csr.rows() == v.m && csr.cols() == v.n &&
                    csr.nnz() == t.nnz(),
                "copy_values_from: shape mismatch");
  std::vector<Index> cursor(static_cast<std::size_t>(v.m), 0);
  ref_talon_loop(v, [&](Index row, Index col, Index k) {
    auto& cur = cursor[static_cast<std::size_t>(row)];
    KESTREL_CHECK(cur < csr.row_nnz(row) &&
                      csr.row_cols(row)[static_cast<std::size_t>(cur)] == col,
                  "copy_values_from: sparsity pattern changed");
    val[static_cast<std::size_t>(k)] =
        csr.row_vals(row)[static_cast<std::size_t>(cur)];
    ++cur;
  });
  for (Index i = 0; i < v.m; ++i) {
    KESTREL_CHECK(cursor[static_cast<std::size_t>(i)] == csr.row_nnz(i),
                  "copy_values_from: sparsity pattern changed");
  }
  return val;
}

Csr ref_to_csr(const Talon& t) {
  const TalonView v = t.view();
  std::vector<Index> rowptr(static_cast<std::size_t>(v.m) + 1, 0);
  for (Index p = 0; p < v.npanels; ++p) {
    const Index row0 = v.panel_row[p];
    const Index r = v.panel_row[p + 1] - row0;
    for (Index b = v.panel_blockptr[p]; b < v.panel_blockptr[p + 1]; ++b) {
      for (Index j = 0; j < r; ++j) {
        rowptr[static_cast<std::size_t>(row0 + j) + 1] += std::popcount(
            (v.block_mask[b] >> (8u * static_cast<unsigned>(j))) & 0xFFu);
      }
    }
  }
  for (std::size_t i = 1; i < rowptr.size(); ++i) rowptr[i] += rowptr[i - 1];
  const auto total = static_cast<std::size_t>(rowptr.back());
  std::vector<Index> colidx(total);
  std::vector<Scalar> val(total);
  std::vector<Index> cursor(rowptr.begin(), rowptr.end() - 1);
  ref_talon_loop(v, [&](Index row, Index col, Index k) {
    auto& cur = cursor[static_cast<std::size_t>(row)];
    colidx[static_cast<std::size_t>(cur)] = col;
    val[static_cast<std::size_t>(cur)] = v.val[k];
    ++cur;
  });
  return Csr(v.m, v.n, std::move(rowptr), std::move(colidx), std::move(val));
}

// --------------------------------------------------------------------------
// Configurations and patterns
// --------------------------------------------------------------------------

/// The stored value array, padding included.
std::vector<Scalar> stored(const Csr& a) {
  return {a.val(), a.val() + a.nnz()};
}
std::vector<Scalar> stored(const Sell& s) {
  return {s.val(), s.val() + s.stored_elements()};
}
std::vector<Scalar> stored(const Talon& t) {
  return {t.view().val, t.view().val + t.nnz()};
}

/// Calls f(name, make) for Csr; Sell at c = 4, 8, 16, sigma = 1, 24 and
/// bitmask off and on; and Talon with the inspector and with forced
/// r = 1, 2, 4. make(csr) builds the configured format from a CSR.
template <class F>
void for_each_config(F f) {
  f(std::string("csr"), [](const Csr& a) { return Csr(a); });
  for (Index c : {4, 8, 16}) {
    for (Index sigma : {1, 24}) {
      for (bool bitmask : {false, true}) {
        const SellOptions opts{c, sigma, bitmask};
        f("sell/c" + std::to_string(c) + "/sigma" + std::to_string(sigma) +
              (bitmask ? "/bitmask" : ""),
          [opts](const Csr& a) { return Sell(a, opts); });
      }
    }
  }
  for (Index r : {0, 1, 2, 4}) {
    const TalonOptions opts{r};
    f(r == 0 ? std::string("talon/inspector") : "talon/r" + std::to_string(r),
      [opts](const Csr& a) { return Talon(a, opts); });
  }
}

/// Csr keeps its own diagonal body and has no CSR export.
template <class M>
constexpr bool kWalksDiagonalAndExport = !std::is_same_v<M, Csr>;

struct Pattern {
  const char* name;
  Csr (*make)();
};

// Sizes are not multiples of 4, 8 or 16, so the last slice and the last
// panels are partial, and rows straddle every slice and panel edge.
const Pattern kPatterns[] = {
    {"banded", [] { return testing::banded(61, {-9, -2, 1, 4}); }},
    {"power_law", [] { return testing::power_law(75); }},
    {"empty_rows", [] { return testing::with_empty_rows(53); }},
    {"dense_row", [] { return testing::with_dense_row(43); }},
    {"straddling", [] { return testing::straddling_boundaries(70); }},
    {"last_row_only_column",
     [] { return testing::last_row_only_column(29); }},
    {"wide", [] { return testing::uniform_random(37, 90, 5); }},
    {"tall", [] { return testing::uniform_random(83, 21, 4); }},
    {"single_column", [] { return testing::single_column(31); }},
    {"empty", [] { return Csr(0, 0, {0}, {}, {}); }},
};

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.size()) * sizeof(Scalar)) ==
              0);
}

bool same_bits(const std::vector<Scalar>& a, const std::vector<Scalar>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(Scalar)) == 0);
}

/// Same pattern, new values: every value scaled and shifted by its index,
/// with one sign flip, so no refreshed value equals its old one.
Csr perturbed(const Csr& a) {
  Csr b = a;
  for (std::int64_t k = 0; k < b.nnz(); ++k) {
    Scalar& v = b.mutable_val()[k];
    v = (k % 3 == 0 ? -1.5 : 0.75) * v + 1e-3 * static_cast<Scalar>(k + 1);
  }
  return b;
}

/// Rebuilds `a` row by row after `edit` changes row lists of
/// (column, value) pairs; rows are re-sorted by column.
using Rows = std::vector<std::vector<std::pair<Index, Scalar>>>;
Csr edited(const Csr& a, const std::function<void(Rows&)>& edit) {
  Rows rows(static_cast<std::size_t>(a.rows()));
  for (Index i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.row_cols(i).size(); ++k) {
      rows[static_cast<std::size_t>(i)].emplace_back(a.row_cols(i)[k],
                                                     a.row_vals(i)[k]);
    }
  }
  edit(rows);
  std::vector<Index> rowptr{0};
  std::vector<Index> colidx;
  std::vector<Scalar> val;
  for (auto& row : rows) {
    std::sort(row.begin(), row.end());
    for (const auto& [col, v] : row) {
      colidx.push_back(col);
      val.push_back(v);
    }
    rowptr.push_back(static_cast<Index>(colidx.size()));
  }
  return Csr(a.rows(), a.cols(), std::move(rowptr), std::move(colidx),
             std::move(val));
}

/// A row that holds at least one entry and misses at least one column, and
/// that missing column; row -1 when there is none.
std::pair<Index, Index> row_with_gap(const Csr& a) {
  for (Index i = a.rows() / 2; i < a.rows() + a.rows() / 2; ++i) {
    const Index row = i % a.rows();
    const auto cols = a.row_cols(row);
    if (cols.empty() || static_cast<Index>(cols.size()) == a.cols()) continue;
    Index j = 0;
    while (std::binary_search(cols.begin(), cols.end(), j)) ++j;
    return {row, j};
  }
  return {-1, -1};
}

// --------------------------------------------------------------------------
// Tests
// --------------------------------------------------------------------------

TEST(WalkReference, DiagonalAndChecksumKeepEveryBit) {
  for (const Pattern& pat : kPatterns) {
    const Csr csr = pat.make();
    for_each_config([&](const std::string& name, auto make) {
      const std::string ctx = std::string(pat.name) + "/" + name;
      const auto m = make(csr);
      Vector got(3, -1.0), want(5, -2.0);
      m.abft_col_checksum(got);
      ref_checksum(m, want);
      EXPECT_TRUE(same_bits(got, want)) << ctx << ": checksum";
      if constexpr (kWalksDiagonalAndExport<std::decay_t<decltype(m)>>) {
        if (csr.rows() != csr.cols()) {
          EXPECT_THROW(m.get_diagonal(got), Error) << ctx;
          return;
        }
        Vector dgot(3, -1.0), dwant(5, -2.0);
        m.get_diagonal(dgot);
        ref_diagonal(m, dwant);
        EXPECT_TRUE(same_bits(dgot, dwant)) << ctx << ": diagonal";
      }
    });
  }
}

TEST(WalkReference, ToCsrReturnsTheSourceExactly) {
  for (const Pattern& pat : kPatterns) {
    const Csr csr = pat.make();
    for_each_config([&](const std::string& name, auto make) {
      const auto m = make(csr);
      if constexpr (kWalksDiagonalAndExport<std::decay_t<decltype(m)>>) {
        const std::string ctx = std::string(pat.name) + "/" + name;
        const Csr back = m.to_csr();
        EXPECT_TRUE(testing::bitwise_equal(back, csr)) << ctx;
        EXPECT_TRUE(testing::bitwise_equal(back, ref_to_csr(m))) << ctx;
      }
    });
  }
}

TEST(WalkReference, CopyValuesFromMatchesReferenceAndFreshBuild) {
  for (const Pattern& pat : kPatterns) {
    const Csr csr = pat.make();
    const Csr next = perturbed(csr);
    const std::vector<Scalar> x = testing::random_x(csr.cols(), 31);
    for_each_config([&](const std::string& name, auto make) {
      for (bool fp32 : {false, true}) {
        const std::string ctx = std::string(pat.name) + "/" + name +
                                (fp32 ? "/fp32" : "/fp64");
        const SlimOptions slim{fp32};
        auto refreshed = make(csr);
        ASSERT_TRUE(refreshed.set_slim(slim)) << ctx;
        const std::vector<Scalar> want_vals = ref_copy_values(refreshed, next);
        refreshed.copy_values_from(next);
        EXPECT_TRUE(same_bits(stored(refreshed), want_vals)) << ctx;

        auto fresh = make(next);
        ASSERT_TRUE(fresh.set_slim(slim)) << ctx;
        std::vector<Scalar> y_refreshed(static_cast<std::size_t>(csr.rows()),
                                        -1.0);
        std::vector<Scalar> y_fresh(y_refreshed.size(), -2.0);
        refreshed.spmv(x.data(), y_refreshed.data());
        fresh.spmv(x.data(), y_fresh.data());
        EXPECT_TRUE(same_bits(y_refreshed, y_fresh)) << ctx;
      }
    });
  }
}

TEST(WalkReference, CopyValuesFromRejectsEveryPatternChange) {
  // In `shifted`, row 0 hands its last entry to row 1: nnz holds, and row 1
  // starts at the column row 0 loses, so only the row-length check sees
  // it. `appended` adds an entry past row 1's last one, which no visited
  // position reaches, so only the nnz check sees it.
  const Csr a(2, 5, {0, 2, 3}, {1, 3, 3}, {1.0, 2.0, 3.0});
  const Csr shifted(2, 5, {0, 1, 3}, {1, 3, 4}, {1.0, 2.0, 3.0});
  const Csr appended(2, 5, {0, 2, 4}, {1, 3, 3, 4}, {1.0, 2.0, 3.0, 4.0});
  for_each_config([&](const std::string& name, auto make) {
    for (const Csr* changed : {&shifted, &appended}) {
      auto m = make(a);
      EXPECT_THROW(m.copy_values_from(*changed), Error) << name;
      EXPECT_THROW((void)ref_copy_values(m, *changed), Error) << name;
    }
  });
  for (const Pattern& pat : kPatterns) {
    const Csr csr = pat.make();
    const auto [row, gap] = row_with_gap(csr);
    if (row < 0) continue;  // no entry can move or be added
    const auto r = static_cast<std::size_t>(row);
    const Csr moved = edited(csr, [&](Rows& rows) {
      rows[r].back().first = gap;
    });
    const Csr dropped = edited(csr, [&](Rows& rows) { rows[r].pop_back(); });
    const Csr added = edited(csr, [&](Rows& rows) {
      rows[r].emplace_back(gap, 1.0);
    });
    for_each_config([&](const std::string& name, auto make) {
      const std::string ctx = std::string(pat.name) + "/" + name;
      for (const Csr* changed : {&moved, &dropped, &added}) {
        auto m = make(csr);
        EXPECT_THROW(m.copy_values_from(*changed), Error) << ctx;
        EXPECT_THROW((void)ref_copy_values(m, *changed), Error) << ctx;
      }
    });
  }
}

}  // namespace
}  // namespace kestrel::mat
