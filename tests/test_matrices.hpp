#pragma once
// Shared deterministic matrix generators for the test suite: the sparsity
// shapes that stress SpMV kernels differently (banded PDE-like, uniform
// random, power-law row lengths, empty rows, a dense row, tiny edge cases).

#include <cstring>
#include <functional>
#include <vector>

#include "base/rng.hpp"
#include "mat/coo.hpp"
#include "mat/csr.hpp"

namespace kestrel::testing {

/// Banded matrix with the given symmetric band offsets (clipped at edges).
inline mat::Csr banded(Index n, std::vector<Index> offsets,
                       std::uint64_t seed = 1) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index off : offsets) {
      const Index j = i + off;
      if (j >= 0 && j < n) coo.add(i, j, rng.uniform(-1.0, 1.0));
    }
    coo.add(i, i, 4.0 + rng.uniform(0.0, 1.0));  // strong diagonal
  }
  return coo.to_csr();
}

/// Every row gets `per_row` entries at uniformly random columns.
inline mat::Csr uniform_random(Index m, Index n, Index per_row,
                               std::uint64_t seed = 2) {
  Rng rng(seed);
  mat::Coo coo(m, n);
  for (Index i = 0; i < m; ++i) {
    for (Index k = 0; k < per_row; ++k) {
      coo.add(i, rng.next_index(n), rng.uniform(-2.0, 2.0));
    }
  }
  return coo.to_csr();
}

/// Row lengths follow a rough power law: a few long rows, many short —
/// the SELL worst case that motivates slicing/sorting.
inline mat::Csr power_law(Index n, std::uint64_t seed = 3) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    const double u = rng.next_double();
    Index len = static_cast<Index>(1.0 + 3.0 / (0.05 + u));
    if (len > n) len = n;
    for (Index k = 0; k < len; ++k) {
      coo.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// Matrix where a stretch of rows in the middle is completely empty.
inline mat::Csr with_empty_rows(Index n, std::uint64_t seed = 4) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    if (i >= n / 3 && i < n / 3 + n / 4) continue;  // empty band
    for (Index k = 0; k < 3; ++k) {
      coo.add(i, rng.next_index(n), rng.uniform(-1.0, 1.0));
    }
  }
  return coo.to_csr();
}

/// Sparse matrix with one fully dense row (long inner loop, remainder 0).
inline mat::Csr with_dense_row(Index n, std::uint64_t seed = 5) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index j = 0; j < n; ++j) coo.add(n / 2, j, rng.uniform(-1.0, 1.0));
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 2.0);
    coo.add(i, (i * 7 + 1) % n, -1.0);
  }
  return coo.to_csr();
}

/// Single-column matrix (n x 1): the narrowest gather/block edge case —
/// every format's column space is one entry wide. Some rows are empty.
inline mat::Csr single_column(Index m, std::uint64_t seed = 6) {
  Rng rng(seed);
  mat::Coo coo(m, 1);
  for (Index i = 0; i < m; ++i) {
    if (i % 3 == 2) continue;  // sprinkle empty rows
    coo.add(i, 0, rng.uniform(-1.0, 1.0));
  }
  return coo.to_csr();
}

/// The LAST column's only nonzero sits in the LAST row: a block/slice that
/// starts near n-1 must edge-mask its x load, and any kernel that touches
/// x past the mask reads out of bounds (caught under ASan).
inline mat::Csr last_row_only_column(Index n, std::uint64_t seed = 7) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index i = 0; i + 1 < n; ++i) {
    coo.add(i, i, 3.0 + rng.uniform(0.0, 1.0));
    if (i > 0) coo.add(i, rng.next_index(n - 1), rng.uniform(-1.0, 1.0));
  }
  coo.add(n - 1, n - 1, 5.0);  // sole entry in column n-1
  coo.add(n - 1, 0, rng.uniform(-1.0, 1.0));
  return coo.to_csr();
}

/// Nonzero runs deliberately straddle every width-8 slice/block boundary:
/// clusters of 3 columns centered on multiples of 8, and row lengths that
/// shift by one across each row-group-of-8 boundary.
inline mat::Csr straddling_boundaries(Index n, std::uint64_t seed = 8) {
  Rng rng(seed);
  mat::Coo coo(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index c = 8; c < n; c += 8) {
      if ((i + c / 8) % 3 == 0) continue;  // gaps so blocks break up
      for (Index j = c - 1; j <= c + 1 && j < n; ++j) {
        coo.add(i, j, rng.uniform(-1.0, 1.0));
      }
    }
    coo.add(i, i, 4.0);
    if (i % 8 == 7 && i + 1 < n) coo.add(i, i + 1, rng.uniform(-1.0, 1.0));
  }
  return coo.to_csr();
}

/// Same shape and bitwise-identical rowptr, colidx and val arrays (so
/// +0.0 and -0.0 differ).
inline bool bitwise_equal(const mat::Csr& a, const mat::Csr& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols() || a.nnz() != b.nnz()) {
    return false;
  }
  const auto rows = static_cast<std::size_t>(a.rows()) + 1;
  const auto nz = static_cast<std::size_t>(a.nnz());
  return std::memcmp(a.rowptr(), b.rowptr(), rows * sizeof(Index)) == 0 &&
         (nz == 0 ||
          (std::memcmp(a.colidx(), b.colidx(), nz * sizeof(Index)) == 0 &&
           std::memcmp(a.val(), b.val(), nz * sizeof(Scalar)) == 0));
}

/// Deterministic dense reference product y = A x.
inline std::vector<Scalar> dense_spmv(const mat::Csr& a,
                                      const std::vector<Scalar>& x) {
  std::vector<Scalar> y(static_cast<std::size_t>(a.rows()), 0.0);
  for (Index i = 0; i < a.rows(); ++i) {
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    Scalar sum = 0.0;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      sum += vals[k] * x[static_cast<std::size_t>(cols[k])];
    }
    y[static_cast<std::size_t>(i)] = sum;
  }
  return y;
}

inline std::vector<Scalar> random_x(Index n, std::uint64_t seed = 9) {
  Rng rng(seed);
  std::vector<Scalar> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  return x;
}

/// Delegating wrapper that corrupts y once, right after the first inner
/// multiply after arm(): a transient soft error landing between a multiply
/// and its ABFT verification (wrap it in aegis::AbftMatrix).
class FaultOnce final : public mat::Matrix {
 public:
  explicit FaultOnce(mat::MatrixPtr inner) : inner_(std::move(inner)) {}

  void arm(std::function<void(Scalar*, Index)> fault) const {
    fault_ = std::move(fault);
  }

  Index rows() const override { return inner_->rows(); }
  Index cols() const override { return inner_->cols(); }
  std::int64_t nnz() const override { return inner_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override {
    inner_->spmv(x, y);
    if (fault_) {
      const auto fault = std::move(fault_);
      fault_ = nullptr;
      fault(y, rows());
    }
  }
  using Matrix::spmv;
  void get_diagonal(Vector& d) const override { inner_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    inner_->abft_col_checksum(c);
  }
  std::string format_name() const override { return inner_->format_name(); }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

 private:
  mat::MatrixPtr inner_;
  mutable std::function<void(Scalar*, Index)> fault_;
};

}  // namespace kestrel::testing
