#pragma once
// Coordinate-format assembly buffer: the MatSetValues stage. Entries may be
// added in any order; duplicates are summed at finalization (PETSc
// ADD_VALUES semantics). Most assembly paths build a Coo first and convert
// to the compute format; the producers on the Gray-Scott Newton path (the
// Jacobian and the MG interpolation) fill CSR directly.

#include <vector>

#include "base/types.hpp"

namespace kestrel::mat {

class Csr;

class Coo {
 public:
  Coo(Index m, Index n);

  Index rows() const { return m_; }
  Index cols() const { return n_; }

  /// Adds v to entry (i, j); duplicates accumulate.
  void add(Index i, Index j, Scalar v);

  /// Adds a dense block rows x cols at (i0, j0), row-major values.
  void add_block(Index i0, Index j0, Index rows, Index cols,
                 const Scalar* v);

  /// Number of raw (pre-merge) triplets.
  std::size_t entries() const { return ij_.size(); }

  void reserve(std::size_t n) { ij_.reserve(n); val_.reserve(n); }
  void clear();

  /// Sorts, merges duplicates, and drops explicit zeros created by
  /// cancellation if `drop_zeros` is set.
  Csr to_csr(bool drop_zeros = false) const;

 private:
  friend class Csr;
  Index m_, n_;
  // (row, col) packed into one 64-bit key for a cheap single-array sort
  std::vector<std::uint64_t> ij_;
  std::vector<Scalar> val_;
};

}  // namespace kestrel::mat
