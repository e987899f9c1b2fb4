#pragma once
// The helpers Csr, Sell and Talon share, each written once over the
// format's one walk of its stored nonzeros: diagonal, column checksums,
// value refresh from a same-pattern CSR, and export to CSR.
//
// A format befriends Walk and defines, in its own .cpp,
//
//   template <class Self, class F> static void walk(Self& self, F f);
//
// which calls f(row, col, pos, v) once per stored nonzero, nnz() calls in
// all and never one on padding: `pos` is the entry's position in its CSR
// row, and `v` refers into the value array, mutable when `self` is. The
// visit order is the format's storage order, so each column checksum keeps
// its summation order and bits. The walk takes f by value, which lets the
// compiler keep f's captures in registers through the loop.

#include <utility>
#include <vector>

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "vec/vector.hpp"

namespace kestrel::mat {

struct Walk {
  /// d[i] = A(i, i), 0 where not stored; requires a square matrix.
  template <class M>
  static void diagonal(const M& a, Vector& d) {
    KESTREL_CHECK(a.rows() == a.cols(),
                  "get_diagonal requires a square matrix");
    d.resize(a.rows());
    d.set(0.0);
    M::walk(a, [&d](Index row, Index col, Index, Scalar v) {
      if (row == col) d[row] = v;
    });
  }

  /// c = Aᵀ·1, summed in walk order.
  template <class M>
  static void col_sums(const M& a, Vector& c) {
    c.resize(a.cols());
    c.set(0.0);
    M::walk(a, [&c](Index, Index col, Index, Scalar v) { c[col] += v; });
  }

  /// Takes every value from a CSR with the same pattern, allocating
  /// nothing. The walk visits a.nnz() entries, so equal counts and the same
  /// column at every visited (row, position) mean the same pattern. Throws
  /// on any difference; entries visited before it keep their new values.
  template <class M>
  static void copy_values(M& a, const Csr& src) {
    KESTREL_CHECK(src.rows() == a.rows() && src.cols() == a.cols() &&
                      src.nnz() == a.nnz(),
                  "copy_values_from: shape mismatch");
    const Index* rowptr = src.rowptr();
    const Index* colidx = src.colidx();
    const Scalar* val = src.val();
    M::walk(a, [=](Index row, Index col, Index pos, Scalar& v) {
      const Index k = rowptr[row] + pos;
      KESTREL_CHECK(k < rowptr[row + 1] && colidx[k] == col,
                    "copy_values_from: sparsity pattern changed");
      v = val[k];
    });
  }

  /// The CSR the walk describes; the Csr constructor validates it.
  template <class M>
  static Csr to_csr(const M& a) {
    std::vector<Index> rowptr(static_cast<std::size_t>(a.rows()) + 1, 0);
    M::walk(a, [&rowptr](Index row, Index, Index, Scalar) {
      ++rowptr[static_cast<std::size_t>(row) + 1];
    });
    for (std::size_t i = 1; i < rowptr.size(); ++i) {
      rowptr[i] += rowptr[i - 1];
    }
    std::vector<Index> colidx(static_cast<std::size_t>(rowptr.back()));
    std::vector<Scalar> val(colidx.size());
    M::walk(a, [&](Index row, Index col, Index pos, Scalar v) {
      const auto k =
          static_cast<std::size_t>(rowptr[static_cast<std::size_t>(row)] + pos);
      colidx[k] = col;
      val[k] = v;
    });
    return Csr(a.rows(), a.cols(), std::move(rowptr), std::move(colidx),
               std::move(val));
  }
};

}  // namespace kestrel::mat
