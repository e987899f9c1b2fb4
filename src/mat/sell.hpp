#pragma once
// Sliced ELLPACK (PETSc SELL) — the format contributed by the paper
// (section 5).
//
// The matrix is cut into slices of `c` adjacent rows (c = 8 by default: one
// 512-bit ZMM register of doubles). Within a slice, rows are padded with
// zeros to the length of the longest row and stored COLUMN-major, so the
// SpMV kernel reads val/colidx in exactly storage order with full-width
// vector loads and needs no remainder loop (Algorithm 2).
//
// Options mirroring the paper's design discussion:
//  * rlen[] is always kept (section 5.2) — not needed by SpMV but required
//    for assembly/inspection and padding identification.
//  * An ESB-style bit array can be attached (section 5.3) for the ablation;
//    the default build omits it (the paper measured ~10% speedup without).
//  * SELL-C-sigma row sorting (section 5.4) is available via `sigma` for
//    the ablation; the default is sigma = 1, i.e. no reordering, matching
//    the paper's choice to leave ordering to the grid layer.

#include <cstdint>
#include <vector>

#include "base/aligned.hpp"
#include "mat/kernels/views.hpp"
#include "mat/matrix.hpp"
#include "mat/partition.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

class Csr;

struct SellOptions {
  Index slice_height = kZmmDoubles;  ///< c; must be in [1, 64]
  Index sigma = 1;     ///< sorting window in slices-of-rows; 1 = no sorting
  bool build_bitmask = false;  ///< attach the ESB bit array
};

class Sell final : public Matrix {
 public:
  Sell() = default;
  explicit Sell(const Csr& csr, SellOptions opts = {});

  // Matrix interface -------------------------------------------------------
  Index rows() const override { return m_; }
  Index cols() const override { return n_; }
  std::int64_t nnz() const override { return nnz_; }
  void spmv(const Scalar* x, Scalar* y) const override;
  using Matrix::spmv;
  bool set_slim(const SlimOptions& opts) override;
  bool slim_active() const override { return slim_.fp32(); }
  void get_diagonal(Vector& d) const override;
  void abft_col_checksum(Vector& c) const override;
  std::string format_name() const override { return "sell"; }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override;

  // SELL-specific ----------------------------------------------------------
  Index slice_height() const { return c_; }
  Index num_slices() const { return nslices_; }
  Index sigma() const { return sigma_; }
  bool has_bitmask() const { return !bitmask_.empty(); }
  bool is_sorted() const { return sigma_ > 1; }

  /// Stored elements including padding.
  std::int64_t stored_elements() const {
    return nslices_ == 0 ? 0 : sliceptr_[nslices_];
  }
  /// Padding overhead: stored / nnz (1.0 = no padding).
  double fill_ratio() const {
    return nnz_ == 0 ? 1.0
                     : static_cast<double>(stored_elements()) /
                           static_cast<double>(nnz_);
  }

  const Index* sliceptr() const { return sliceptr_.data(); }
  const Index* colidx() const { return colidx_.data(); }
  const Scalar* val() const { return val_.data(); }
  const Index* rlen() const { return rlen_.data(); }
  /// Row permutation when sigma-sorted: storage row p holds logical row
  /// perm(p). Identity when sigma == 1.
  Index perm(Index p) const { return perm_.empty() ? p : perm_[p]; }

  /// Reconstructs CSR (drops padding); round-trips exactly.
  Csr to_csr() const;

  /// Refreshes the stored values from a CSR with the SAME sparsity pattern
  /// (PETSc-style structure reuse: a Newton loop rebuilds Jacobian values
  /// every iteration while the 5-point-stencil pattern never changes, so
  /// slicing/padding need not be recomputed). Throws on pattern mismatch.
  void copy_values_from(const Csr& csr);

  /// Forces the ESB masked kernel regardless of default dispatch
  /// (ablation); requires has_bitmask().
  void spmv_bitmask(const Scalar* x, Scalar* y) const;

  /// Unrolled + software-prefetch kernel variant (paper section 5.5
  /// ablation); requires slice height 8 for the vector path.
  void spmv_prefetch(const Scalar* x, Scalar* y) const;

  /// The tier the SpMV kernels run at: tier() lowered to the highest tier
  /// whose kernels support this slice height.
  simd::IsaTier vector_tier() const;

  SellView view() const {
    return {m_,      n_,   c_,           nslices_,
            sliceptr_.data(), colidx_.data(), val_.data(), rlen_.data(),
            bitmask_.empty() ? nullptr : bitmask_.data(), slim_.val32()};
  }

  // Kestrel Slim ----------------------------------------------------------
  /// Traffic of the double SpMV (paper section 6 model).
  std::size_t fat_spmv_traffic_bytes() const;
  /// Traffic of the fp32-value SpMV.
  std::size_t fp32_spmv_traffic_bytes() const;

  // Kestrel Flock ----------------------------------------------------------
  // flock-pool-safe: slice
  /// Re-plans the stored partition. Units are SLICES (the format's
  /// vector-safe granularity — a thread never splits a slice), weighted by
  /// stored elements including padding, i.e. the work the kernel actually
  /// streams.
  void repartition(int nparts) override;
  const FlockPartition& partition() const { return part_; }

 private:
  friend struct Walk;
  /// The one walk of the stored nonzeros (mat/walk.hpp): storage rows
  /// p = 0..m-1 and j < rlen[p], logical row perm(p), position j; padding
  /// is never visited.
  template <class Self, class F>
  static void walk(Self& self, F f);
  void build(const Csr& csr, const SellOptions& opts);
  /// The one SpMV dispatch: `op`'s kernel at `tier` over the slice
  /// partition, into y, or into the sorted scratch and then back to
  /// logical row order.
  void spmv_with(simd::Op op, simd::IsaTier tier, const Scalar* x,
                 Scalar* y) const;
  /// Dispatches `fn` over the slice partition through offset sub-views
  /// (sliceptr values are absolute into colidx/val, so only the sliceptr
  /// pointer, m and the output shift); serial when the partition is.
  void run_partitioned(simd::SellSpmvFn fn, const Scalar* x, Scalar* out) const;
  Index m_ = 0, n_ = 0;
  Index c_ = kZmmDoubles;
  Index nslices_ = 0;
  Index sigma_ = 1;
  std::int64_t nnz_ = 0;
  AlignedBuffer<Index> sliceptr_;
  AlignedBuffer<Index> colidx_;
  AlignedBuffer<Scalar> val_;
  AlignedBuffer<Index> rlen_;
  std::vector<Index> perm_;           ///< storage row -> logical row
  AlignedBuffer<std::uint64_t> bitmask_;
  mutable Vector sorted_tmp_;  ///< scratch for sigma-sorted SpMV output
  FlockPartition part_;        ///< Flock slice partition
  SlimStore slim_;             ///< Kestrel Slim fp32 value stream
};

}  // namespace kestrel::mat
