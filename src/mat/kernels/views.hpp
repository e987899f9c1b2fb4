#pragma once
// POD views of matrix storage handed to the ISA-specific kernel translation
// units. Keeping these plain (no methods that touch other library headers)
// lets every kernel TU compile with only its own -m flags.
//
// Every view carries an optional `val32`: the fp32 shadow of its value
// array (Kestrel Slim, -mat_scalar fp32), entry for entry. Each kernel TU
// compiles one body per format and ISA, templated on the stored value
// type; its fp32 entry points read val32 and widen on load, so the
// accumulation stays double. val32 is null when no fp32 stream is attached
// and is never read by the double entry points.

#include "base/types.hpp"

namespace kestrel::mat {

/// Compressed sparse row (PETSc AIJ). rowptr has m+1 entries.
// argus-view: CsrView
// argus-let: nnz = rowptr[m]
// argus-extent: rowptr = m + 1
// argus-extent: colidx = nnz
// argus-extent: val = nnz
// argus-extent: val32 = nnz
// argus-fact: m >= 0
// argus-fact: n >= 0
// argus-fact: monotone(rowptr)
// argus-fact: rowptr[0] == 0
// argus-fact: elem(colidx) in [0, n)
struct CsrView {
  Index m = 0;  ///< number of rows
  Index n = 0;  ///< number of columns
  const Index* rowptr = nullptr;
  const Index* colidx = nullptr;
  const Scalar* val = nullptr;
  const float* val32 = nullptr;  ///< fp32 shadow of val (optional)
};

/// Sliced ELLPACK (PETSc SELL), slice height `c`. For slice s the elements
/// live in val[sliceptr[s] .. sliceptr[s+1]) stored column-major within the
/// slice (c values per slice-column). rlen[i] is the true nonzero count of
/// row i (paper section 5.2); padded entries carry value 0 and a column
/// index copied from a real in-slice entry (section 5.5).
// argus-view: SellView
// argus-let: stored = sliceptr[nslices]
// argus-extent: sliceptr = nslices + 1
// argus-extent: colidx = stored
// argus-extent: val = stored
// argus-extent: val32 = stored
// argus-extent: rlen = m
// argus-extent: bitmask = stored / c
// argus-fact: m >= 0
// argus-fact: n >= 0
// argus-fact: c >= 1
// argus-fact: c <= 64
// argus-fact: nslices == ceil_div(m, c)
// argus-fact: monotone(sliceptr)
// argus-fact: sliceptr[0] == 0
// argus-fact: divides(c, elem(sliceptr))
// argus-fact: maskword(bitmask)
// argus-fact: elem(colidx) in [0, n)
// argus-fact: elem(rlen) in [0, n]
struct SellView {
  Index m = 0;          ///< logical number of rows (before slice padding)
  Index n = 0;          ///< number of columns
  Index c = 0;          ///< slice height
  Index nslices = 0;    ///< number of slices = ceil(m / c)
  const Index* sliceptr = nullptr;  ///< nslices+1 entries, offsets into val
  const Index* colidx = nullptr;
  const Scalar* val = nullptr;
  const Index* rlen = nullptr;
  /// Optional ESB-style bit mask (one bit per stored element, slice-column
  /// granularity: bit k of mask[word] corresponds to lane k). Null unless
  /// the bit-array variant was requested (ablation of paper section 5.3).
  const std::uint64_t* bitmask = nullptr;
  const float* val32 = nullptr;  ///< fp32 shadow of val (optional)
};

/// CSR grouped by equal row length (PETSc AIJPERM). Rows are NOT reordered
/// in memory; `perm` lists row ids group by group and groups of equal-length
/// rows are vectorized across rows (paper section 2.4).
// argus-view: CsrPermView
// argus-field: csr : CsrView
// argus-extent: group_begin = ngroups + 1
// argus-extent: perm = csr.m
// argus-extent: group_rlen = ngroups
// argus-fact: ngroups >= 0
// argus-fact: monotone(group_begin)
// argus-fact: group_begin[0] == 0
// argus-fact: group_begin[ngroups] == csr.m
// argus-fact: elem(perm) in [0, csr.m)
// argus-fact: group(perm, group_begin, group_rlen, csr.rowptr)
struct CsrPermView {
  CsrView csr;
  Index ngroups = 0;
  const Index* group_begin = nullptr;  ///< ngroups+1 offsets into perm
  const Index* perm = nullptr;         ///< row ids, grouped
  const Index* group_rlen = nullptr;   ///< common row length per group
};

/// SPC5-style beta(r,c) block format (Talon): rows are grouped into panels
/// of r in {1, 2, 4} adjacent rows; each panel owns a run of blocks, each
/// covering up to kZmmDoubles consecutive columns starting at block_col[b].
/// Byte j of block_mask[b] is the 8-bit column-presence mask of panel row j,
/// and the nonzero values are packed densely in (block, row, mask-bit)
/// order with NO zero padding — kernels expand them into vector lanes with
/// vpexpandpd / mask loads and advance the value pointer by popcount.
// argus-view: TalonView
// argus-let: nblocks = panel_blockptr[npanels]
// argus-let: stored = panel_valptr[npanels]
// argus-extent: panel_row = npanels + 1
// argus-extent: panel_blockptr = npanels + 1
// argus-extent: panel_valptr = npanels + 1
// argus-extent: block_col = nblocks
// argus-extent: block_mask = nblocks
// argus-extent: val = stored
// argus-extent: val32 = stored
// argus-fact: m >= 0
// argus-fact: n >= 0
// argus-fact: npanels >= 0
// argus-fact: monotone(panel_row)
// argus-fact: monotone(panel_blockptr)
// argus-fact: monotone(panel_valptr)
// argus-fact: panel_row[0] == 0
// argus-fact: panel_blockptr[0] == 0
// argus-fact: panel_valptr[0] == 0
// argus-fact: panel_row[npanels] == m
// argus-fact: elem(block_col) in [0, n)
// argus-fact: stride(panel_row) in {1, 2, 4}
// argus-fact: maskbit(block_mask, block_col, n)
// argus-fact: packed(val, panel_valptr, block_mask)
// argus-fact: packed(val32, panel_valptr, block_mask)
struct TalonView {
  Index m = 0;        ///< number of rows
  Index n = 0;        ///< number of columns
  Index npanels = 0;  ///< number of row panels
  /// npanels+1; panel p covers rows [panel_row[p], panel_row[p+1]), so its
  /// height r = panel_row[p+1] - panel_row[p] is 1, 2 or 4.
  const Index* panel_row = nullptr;
  const Index* panel_blockptr = nullptr;  ///< npanels+1 offsets into block_*
  const Index* panel_valptr = nullptr;    ///< npanels+1 offsets into val
  const Index* block_col = nullptr;       ///< first column of each block
  /// One 8-bit mask per panel row, packed little-endian: bit k of byte j set
  /// means A(panel_row[p] + j, block_col[b] + k) is stored.
  const std::uint32_t* block_mask = nullptr;
  const Scalar* val = nullptr;  ///< packed nonzeros, no padding
  const float* val32 = nullptr;  ///< fp32 shadow of val (optional)
};

/// Block CSR (PETSc BAIJ) with square bs x bs blocks stored row-major per
/// block; brow/bcol are in block units.
// argus-view: BcsrView
// argus-let: nblocks = rowptr[mb]
// argus-extent: rowptr = mb + 1
// argus-extent: colidx = nblocks
// argus-extent: val = nblocks * bs * bs
// argus-extent: val32 = nblocks * bs * bs
// argus-fact: mb >= 0
// argus-fact: nb >= 0
// argus-fact: bs >= 1
// argus-fact: monotone(rowptr)
// argus-fact: rowptr[0] == 0
// argus-fact: elem(colidx) in [0, nb)
struct BcsrView {
  Index mb = 0;  ///< number of block rows
  Index nb = 0;  ///< number of block cols
  Index bs = 0;  ///< block size
  const Index* rowptr = nullptr;  ///< mb+1, in blocks
  const Index* colidx = nullptr;  ///< block column indices
  const Scalar* val = nullptr;    ///< bs*bs scalars per block
  const float* val32 = nullptr;   ///< fp32 shadow of val (optional)
};

}  // namespace kestrel::mat
