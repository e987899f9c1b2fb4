#include "mat/spgemm.hpp"

#include <algorithm>
#include <vector>

#include "base/error.hpp"

namespace kestrel::mat {

Csr spgemm(const Csr& a, const Csr& b) {
  KESTREL_CHECK(a.cols() == b.rows(), "spgemm dimension mismatch");
  const Index m = a.rows();
  const Index n = b.cols();

  // Symbolic pass: exact row counts from the column marker alone, so the
  // output is allocated once at its final size.
  AlignedBuffer<Index> rowptr(static_cast<std::size_t>(m) + 1);
  std::vector<Index> marker(static_cast<std::size_t>(n), -1);
  GIndex total = 0;
  rowptr[0] = 0;
  for (Index i = 0; i < m; ++i) {
    for (const Index k : a.row_cols(i)) {
      for (const Index j : b.row_cols(k)) {
        if (marker[static_cast<std::size_t>(j)] != i) {
          marker[static_cast<std::size_t>(j)] = i;
          ++total;
        }
      }
    }
    rowptr[static_cast<std::size_t>(i) + 1] = static_cast<Index>(total);
  }
  if (total > IndexOverflowError::ceiling()) {
    throw IndexOverflowError(total, "spgemm nonzero count", __FILE__,
                             __LINE__);
  }

  // Numeric pass, Gustavson with a dense accumulator: the same (ka, kb)
  // accumulation order as a single-pass product. Each row's columns land
  // in place in first-touch order, are sorted there, and then gather
  // their sums.
  AlignedBuffer<Index> colidx(static_cast<std::size_t>(total));
  AlignedBuffer<Scalar> val(static_cast<std::size_t>(total));
  std::vector<Scalar> acc(static_cast<std::size_t>(n), 0.0);
  std::fill(marker.begin(), marker.end(), -1);
  for (Index i = 0; i < m; ++i) {
    const Index begin = rowptr[static_cast<std::size_t>(i)];
    const Index end = rowptr[static_cast<std::size_t>(i) + 1];
    Index pos = begin;
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    for (std::size_t ka = 0; ka < ac.size(); ++ka) {
      const Index k = ac[ka];
      const Scalar aval = av[ka];
      const auto bc = b.row_cols(k);
      const auto bv = b.row_vals(k);
      for (std::size_t kb = 0; kb < bc.size(); ++kb) {
        const Index j = bc[kb];
        if (marker[static_cast<std::size_t>(j)] != i) {
          marker[static_cast<std::size_t>(j)] = i;
          acc[static_cast<std::size_t>(j)] = 0.0;
          colidx[static_cast<std::size_t>(pos++)] = j;
        }
        acc[static_cast<std::size_t>(j)] += aval * bv[kb];
      }
    }
    std::sort(colidx.data() + begin, colidx.data() + end);
    for (Index p = begin; p < end; ++p) {
      val[static_cast<std::size_t>(p)] =
          acc[static_cast<std::size_t>(colidx[static_cast<std::size_t>(p)])];
    }
  }
  return Csr::adopt(m, n, std::move(rowptr), std::move(colidx),
                    std::move(val));
}

Csr galerkin(const Csr& a, const Csr& p, const Csr& pt) {
  return spgemm(pt, spgemm(a, p));
}

Csr add(Scalar alpha, const Csr& a, Scalar beta, const Csr& b) {
  KESTREL_CHECK(a.rows() == b.rows() && a.cols() == b.cols(),
                "add dimension mismatch");
  const Index m = a.rows();
  std::vector<Index> rowptr(static_cast<std::size_t>(m) + 1, 0);
  std::vector<Index> colidx;
  std::vector<Scalar> val;
  for (Index i = 0; i < m; ++i) {
    const auto ac = a.row_cols(i);
    const auto av = a.row_vals(i);
    const auto bc = b.row_cols(i);
    const auto bv = b.row_vals(i);
    std::size_t ka = 0, kb = 0;
    while (ka < ac.size() || kb < bc.size()) {
      Index j;
      Scalar v = 0.0;
      if (ka < ac.size() && (kb >= bc.size() || ac[ka] <= bc[kb])) {
        j = ac[ka];
        v += alpha * av[ka];
        ++ka;
        if (kb < bc.size() && bc[kb] == j) {
          v += beta * bv[kb];
          ++kb;
        }
      } else {
        j = bc[kb];
        v += beta * bv[kb];
        ++kb;
      }
      colidx.push_back(j);
      val.push_back(v);
    }
    rowptr[static_cast<std::size_t>(i) + 1] =
        static_cast<Index>(colidx.size());
  }
  return Csr(m, a.cols(), std::move(rowptr), std::move(colidx),
             std::move(val));
}

bool shift_identity_in_place(Scalar beta, Csr& a) {
  const Index m = a.rows();
  if (m != a.cols() || a.slim_active()) return false;
  for (Index i = 0; i < m; ++i) {
    const auto cols = a.row_cols(i);
    if (!std::binary_search(cols.begin(), cols.end(), i)) return false;
  }
  const Index* rowptr = a.rowptr();
  const Index* colidx = a.colidx();
  Scalar* val = a.mutable_val();
  for (Index i = 0; i < m; ++i) {
    for (Index k = rowptr[i]; k < rowptr[i + 1]; ++k) {
      // add() starts every merged entry from 0.0 and adds alpha * 1.0 on
      // the diagonal first; spelling out both sums keeps the signed zeros.
      val[k] = (colidx[k] == i ? 1.0 : 0.0) + beta * val[k];
    }
  }
  return true;
}

Csr identity(Index n) {
  std::vector<Index> rowptr(static_cast<std::size_t>(n) + 1);
  std::vector<Index> colidx(static_cast<std::size_t>(n));
  std::vector<Scalar> val(static_cast<std::size_t>(n), 1.0);
  for (Index i = 0; i <= n; ++i) rowptr[static_cast<std::size_t>(i)] = i;
  for (Index i = 0; i < n; ++i) colidx[static_cast<std::size_t>(i)] = i;
  return Csr(n, n, std::move(rowptr), std::move(colidx), std::move(val));
}

}  // namespace kestrel::mat
