#pragma once
// Compressed sparse row (PETSc AIJ): the baseline format of the paper.
// Storage is cache-line aligned; SpMV dispatches to the ISA tier selected
// at runtime (scalar baseline = compiler-autovectorized loop, or the
// hand-written AVX/AVX2/AVX-512 kernels of Algorithm 1).

#include <cstdint>
#include <span>
#include <vector>

#include "base/aligned.hpp"
#include "mat/kernels/views.hpp"
#include "mat/matrix.hpp"
#include "mat/partition.hpp"

namespace kestrel::mat {

class Csr final : public Matrix {
 public:
  Csr() = default;
  /// Takes ownership of standard CSR arrays. rowptr.size() == m+1,
  /// colidx/val sized rowptr[m]; column indices must lie in [0, n) and be
  /// sorted within each row.
  Csr(Index m, Index n, std::vector<Index> rowptr, std::vector<Index> colidx,
      std::vector<Scalar> val);

  /// Adopts CSR arrays already in aligned storage, without a copy. Same
  /// requirements, checks and row partitioning as the vector constructor
  /// (which delegates here); producers that know their sizes up front fill
  /// these buffers directly.
  static Csr adopt(Index m, Index n, AlignedBuffer<Index> rowptr,
                   AlignedBuffer<Index> colidx, AlignedBuffer<Scalar> val);

  // Matrix interface -------------------------------------------------------
  Index rows() const override { return m_; }
  Index cols() const override { return n_; }
  std::int64_t nnz() const override {
    return m_ == 0 ? 0 : rowptr_[static_cast<std::size_t>(m_)];
  }
  void spmv(const Scalar* x, Scalar* y) const override;
  using Matrix::spmv;
  bool set_slim(const SlimOptions& opts) override;
  bool slim_active() const override { return slim_.fp32(); }
  void get_diagonal(Vector& d) const override;
  void abft_col_checksum(Vector& c) const override;
  std::string format_name() const override { return "csr"; }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override;

  // CSR-specific access ----------------------------------------------------
  const Index* rowptr() const { return rowptr_.data(); }
  const Index* colidx() const { return colidx_.data(); }
  const Scalar* val() const { return val_.data(); }
  Scalar* mutable_val() { return val_.data(); }

  Index row_nnz(Index i) const { return rowptr_[i + 1] - rowptr_[i]; }
  std::span<const Index> row_cols(Index i) const {
    return {colidx_.data() + rowptr_[i],
            static_cast<std::size_t>(row_nnz(i))};
  }
  std::span<const Scalar> row_vals(Index i) const {
    return {val_.data() + rowptr_[i], static_cast<std::size_t>(row_nnz(i))};
  }

  /// A(i, j), zero if not stored (binary search within the row).
  Scalar at(Index i, Index j) const;

  Csr transpose() const;

  /// Refreshes values in place from a same-pattern CSR (structure reuse).
  void copy_values_from(const Csr& other);

  /// Extracts the submatrix with the given (sorted, unique) rows/cols,
  /// renumbered to 0..len-1 — used to split parallel matrices into
  /// diagonal/off-diagonal blocks.
  Csr extract(const std::vector<Index>& rows,
              const std::vector<Index>& cols) const;

  /// Maximum nonzeros in any row.
  Index max_row_nnz() const;

  CsrView view() const {
    return {m_, n_, rowptr_.data(), colidx_.data(), val_.data(),
            slim_.val32()};
  }

  // Kestrel Slim ----------------------------------------------------------
  /// Traffic of the double SpMV (paper section 6 model).
  std::size_t fat_spmv_traffic_bytes() const;
  /// Traffic of the fp32-value SpMV.
  std::size_t fp32_spmv_traffic_bytes() const;

  // Kestrel Flock ----------------------------------------------------------
  // flock-pool-safe: row
  /// Re-plans the stored nnz-balanced row partition (units = rows, weights
  /// straight from rowptr). Planned at construction for
  /// par::configured_threads().
  void repartition(int nparts) override;
  const FlockPartition& partition() const { return part_; }

 private:
  friend struct Walk;
  /// The one walk of the stored nonzeros (mat/walk.hpp): row i, then k from
  /// rowptr[i] to rowptr[i+1], at position k - rowptr[i].
  template <class Self, class F>
  static void walk(Self& self, F f);
  void validate() const;

  Index m_ = 0, n_ = 0;
  AlignedBuffer<Index> rowptr_;
  AlignedBuffer<Index> colidx_;
  AlignedBuffer<Scalar> val_;
  FlockPartition part_;
  SlimStore slim_;
};

}  // namespace kestrel::mat
