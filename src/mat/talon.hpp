#pragma once
// Talon — SPC5-style beta(r,c) block format without zero padding (Bramas &
// Kus, "Computing the sparse matrix vector product using block-based
// kernels without zero padding on processors with AVX-512 instructions").
//
// Rows are grouped into PANELS of r in {1, 2, 4} adjacent rows; within a
// panel, the union of the rows' column indices is covered left-to-right by
// BLOCKS of up to c = 8 consecutive columns (one ZMM register of doubles).
// Each block stores its start column, one 8-bit presence mask per panel
// row, and ONLY the nonzero values, packed densely. The AVX-512 kernel
// loads x[block_col .. block_col+8) once per block with a plain (or
// edge-masked) vector load — no gather, because the block's columns are
// consecutive — and expands the packed values into the masked lanes with
// vpexpandpd (_mm512_maskz_expandloadu_pd), advancing the value pointer by
// popcount(mask). Unlike SELL there are never stored zeros, and unlike
// BCSR a block with a single nonzero costs 8 bytes of value data, not
// bs*bs*8.
//
// A block-geometry inspector picks r per panel: for each candidate height
// it counts the blocks needed to cover the rows' columns and scores the
// per-row cost (r value streams + 1 x-load/metadata stream per block),
// taking the cheapest — so 2-dof-interleaved operators (Gray-Scott) get
// r = 2/4 panels over their duplicated column patterns while scattered
// rows degrade gracefully to r = 1.

#include <cstdint>

#include "base/aligned.hpp"
#include "mat/kernels/views.hpp"
#include "mat/matrix.hpp"
#include "mat/partition.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

class Csr;

struct TalonOptions {
  /// 0 = inspector picks r per panel; 1, 2 or 4 forces a uniform height
  /// (the block-shape ablation sweeps this).
  Index force_r = 0;
};

class Talon final : public Matrix {
 public:
  Talon() = default;
  explicit Talon(const Csr& csr, TalonOptions opts = {});

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
  std::string format_name() const override { return "talon"; }
  std::size_t storage_bytes() const override;
  std::size_t spmv_traffic_bytes() const override;

  // Talon-specific ---------------------------------------------------------
  Index num_panels() const { return npanels_; }
  std::int64_t num_blocks() const {
    return npanels_ == 0 ? 0 : panel_blockptr_[npanels_];
  }
  /// Panels of height r (block-shape ablation statistic).
  Index panels_with_r(Index r) const;
  /// Mask density: nnz over total block capacity (sum over panels of
  /// r * 8 * blocks). 1.0 would be fully dense blocks.
  double block_fill() const;

  /// Reconstructs CSR (column-sorted rows); round-trips exactly.
  Csr to_csr() const;

  /// Refreshes values from a CSR with the SAME sparsity pattern (structure
  /// reuse in Newton loops); throws on pattern mismatch.
  void copy_values_from(const Csr& csr);

  TalonView view() const {
    return {m_,
            n_,
            npanels_,
            panel_row_.data(),
            panel_blockptr_.data(),
            panel_valptr_.data(),
            block_col_.data(),
            block_mask_.data(),
            val_.data(),
            slim_.val32()};
  }

  // Kestrel Slim ----------------------------------------------------------
  /// Traffic of the double SpMV.
  std::size_t fat_spmv_traffic_bytes() const;
  /// Traffic of the fp32-value SpMV (val32 mirrors the packed value walk
  /// entry for entry).
  std::size_t fp32_spmv_traffic_bytes() const;

  // Kestrel Flock ----------------------------------------------------------
  // flock-pool-safe: panel
  /// Re-plans the stored partition. Units are PANELS (granularity: a thread
  /// never splits a beta(r,c) panel's block walk), weighted by stored
  /// values (panel_valptr deltas — Talon stores no padding, so that IS the
  /// nnz distribution).
  void repartition(int nparts) override;
  const FlockPartition& partition() const { return part_; }

 private:
  friend struct Walk;
  /// The one walk of the stored nonzeros (mat/walk.hpp): panel, block,
  /// panel row, then mask bit, the order the values are packed in.
  template <class Self, class F>
  static void walk(Self& self, F f);
  void build(const Csr& csr, const TalonOptions& opts);
  void run_partitioned(simd::TalonSpmvFn fn, const Scalar* x,
                       Scalar* y) const;

  Index m_ = 0, n_ = 0;
  Index npanels_ = 0;
  std::int64_t nnz_ = 0;
  AlignedBuffer<Index> panel_row_;       ///< npanels+1
  AlignedBuffer<Index> panel_blockptr_;  ///< npanels+1
  AlignedBuffer<Index> panel_valptr_;    ///< npanels+1
  AlignedBuffer<Index> block_col_;
  AlignedBuffer<std::uint32_t> block_mask_;
  AlignedBuffer<Scalar> val_;
  FlockPartition part_;
  SlimStore slim_;
};

}  // namespace kestrel::mat
