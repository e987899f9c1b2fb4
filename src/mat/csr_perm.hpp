#pragma once
// CSR with permutation (PETSc AIJPERM, after D'Azevedo/Fahey/Mills 2005,
// paper section 2.4): data stays in CSR order, an extra permutation groups
// rows of equal nonzero count, and SpMV vectorizes across rows of a group.

#include <vector>

#include "base/aligned.hpp"
#include "mat/csr.hpp"
#include "mat/kernels/views.hpp"
#include "mat/matrix.hpp"
#include "mat/partition.hpp"

namespace kestrel::mat {

class CsrPerm final : public Matrix {
 public:
  explicit CsrPerm(Csr csr);

  Index rows() const override { return csr_.rows(); }
  Index cols() const override { return csr_.cols(); }
  std::int64_t nnz() const override { return csr_.nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override;
  using Matrix::spmv;
  // Kestrel Slim: the fp32 value stream lives in the inner CSR (the
  // grouped walk reads values in CSR order) and reaches the kernels as
  // view().csr.val32.
  bool set_slim(const SlimOptions& opts) override {
    return csr_.set_slim(opts);
  }
  bool slim_active() const override { return csr_.slim_active(); }
  void get_diagonal(Vector& d) const override { csr_.get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    csr_.abft_col_checksum(c);
  }
  std::string format_name() const override { return "csrperm"; }
  std::size_t storage_bytes() const override;
  // argus-traffic-model: csr_perm
  // argus-traffic-stream: @include = csr
  // argus-traffic-stream: perm = 4 * m
  // argus-traffic-stream: group_begin = 0 : amortized
  // argus-traffic-stream: group_rlen = 0 : amortized
  // argus-traffic-bind: csr_.fat_spmv_traffic_bytes() = include_csr
  // argus-traffic-bind: rows() = m
  // argus-traffic-cpp: fat_spmv_traffic_bytes
  std::size_t fat_spmv_traffic_bytes() const {
    // CSR traffic plus the permutation array read (4 bytes/row).
    return csr_.fat_spmv_traffic_bytes() +
           4 * static_cast<std::size_t>(rows());
  }
  // argus-traffic-model: csr_perm_fp32
  // argus-traffic-stream: @include = csr_fp32
  // argus-traffic-stream: perm = 4 * m
  // argus-traffic-stream: group_begin = 0 : amortized
  // argus-traffic-stream: group_rlen = 0 : amortized
  // argus-traffic-bind: csr_.fp32_spmv_traffic_bytes() = include_csr_fp32
  // argus-traffic-bind: rows() = m
  // argus-traffic-cpp: fp32_spmv_traffic_bytes
  std::size_t fp32_spmv_traffic_bytes() const {
    return csr_.fp32_spmv_traffic_bytes() +
           4 * static_cast<std::size_t>(rows());
  }
  std::size_t spmv_traffic_bytes() const override {
    return slim_active() ? fp32_spmv_traffic_bytes()
                         : fat_spmv_traffic_bytes();
  }

  Index num_groups() const { return ngroups_; }
  const Csr& csr() const { return csr_; }

  CsrPermView view() const {
    return {csr_.view(), ngroups_, group_begin_.data(), perm_.data(),
            group_rlen_.data()};
  }

  // Kestrel Flock ----------------------------------------------------------
  // flock-pool-safe: group8
  /// Re-plans the stored partition. Units are the kernel's width-8 VECTOR
  /// CHUNKS of permuted positions (plus per-group remainder chunks), so a
  /// split can only land on group_begin[g] + 8k — every row keeps its
  /// vector-vs-remainder membership and the FMA accumulation it had
  /// serially. Each part gets a synthesized group table re-using the same
  /// absolute positions, perm and CSR arrays.
  void repartition(int nparts) override;
  const FlockPartition& partition() const { return part_; }

 private:
  /// One part's view of the group structure: a contiguous run of (possibly
  /// clipped) groups in absolute position space.
  struct PartGroups {
    std::vector<Index> begin;  ///< size rlen.size()+1, absolute positions
    std::vector<Index> rlen;
  };

  Csr csr_;
  Index ngroups_ = 0;
  AlignedBuffer<Index> group_begin_;
  AlignedBuffer<Index> perm_;
  AlignedBuffer<Index> group_rlen_;
  FlockPartition part_;  ///< over vector chunks (see repartition)
  std::vector<PartGroups> part_groups_;
};

}  // namespace kestrel::mat
