#pragma once
// Block CSR (PETSc BAIJ, paper sections 1/3.2): for PDE systems with
// multiple degrees of freedom per grid point the matrix consists of small
// dense bs x bs blocks; storing them as blocks removes per-entry column
// indices and enables register reuse of x. The Gray–Scott system (2 dof)
// produces 2x2 blocks.

#include <vector>

#include "base/aligned.hpp"
#include "mat/kernels/views.hpp"
#include "mat/matrix.hpp"
#include "mat/partition.hpp"

namespace kestrel::mat {

class Csr;

class Bcsr final : public Matrix {
 public:
  Bcsr() = default;
  /// Converts from CSR; every nonzero must belong to a bs x bs block grid
  /// cell (missing entries within an occupied block are stored as 0).
  Bcsr(const Csr& csr, Index bs);

  Index rows() const override { return mb_ * bs_; }
  Index cols() const override { return nb_ * bs_; }
  std::int64_t nnz() const override { return nnz_; }
  void spmv(const Scalar* x, Scalar* y) const override;
  using Matrix::spmv;
  bool set_slim(const SlimOptions& opts) override;
  bool slim_active() const override { return slim_.fp32(); }
  void get_diagonal(Vector& d) const override;
  void abft_col_checksum(Vector& c) const override;
  std::string format_name() const override { return "bcsr"; }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override;

  Index block_size() const { return bs_; }
  Index block_rows() const { return mb_; }
  std::int64_t stored_blocks() const {
    return mb_ == 0 ? 0 : rowptr_[static_cast<std::size_t>(mb_)];
  }

  BcsrView view() const {
    return {mb_, nb_, bs_, rowptr_.data(), colidx_.data(), val_.data(),
            slim_.val32()};
  }

  // Kestrel Slim ----------------------------------------------------------
  /// Traffic of the double SpMV.
  std::size_t fat_spmv_traffic_bytes() const;
  /// Traffic of the fp32-value SpMV.
  std::size_t fp32_spmv_traffic_bytes() const;

  // Kestrel Flock ----------------------------------------------------------
  // flock-pool-safe: blockrow
  /// Re-plans the stored partition. Units are BLOCK rows (granularity: a
  /// thread never splits a bs x bs block), weighted by stored scalar
  /// entries (blocks * bs^2).
  void repartition(int nparts) override;
  const FlockPartition& partition() const { return part_; }

 private:
  Index mb_ = 0, nb_ = 0, bs_ = 0;
  std::int64_t nnz_ = 0;  ///< logical scalar nonzeros (pre-fill)
  AlignedBuffer<Index> rowptr_;
  AlignedBuffer<Index> colidx_;
  AlignedBuffer<Scalar> val_;
  FlockPartition part_;
  SlimStore slim_;
};

}  // namespace kestrel::mat
