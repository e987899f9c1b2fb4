#include "mat/bcsr.hpp"

#include <map>

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

Bcsr::Bcsr(const Csr& csr, Index bs) : bs_(bs), nnz_(csr.nnz()) {
  KESTREL_CHECK(bs >= 1, "block size must be positive");
  KESTREL_CHECK(csr.rows() % bs == 0 && csr.cols() % bs == 0,
                "matrix dimensions must be divisible by the block size");
  mb_ = csr.rows() / bs;
  nb_ = csr.cols() / bs;

  // Pass 1: which block columns are occupied per block row.
  std::vector<Index> rowptr(static_cast<std::size_t>(mb_) + 1, 0);
  std::vector<std::vector<Index>> bcols(static_cast<std::size_t>(mb_));
  for (Index ib = 0; ib < mb_; ++ib) {
    std::map<Index, bool> seen;
    for (Index r = 0; r < bs; ++r) {
      for (Index c : csr.row_cols(ib * bs + r)) seen[c / bs] = true;
    }
    auto& cols = bcols[static_cast<std::size_t>(ib)];
    cols.reserve(seen.size());
    for (const auto& [jb, _] : seen) cols.push_back(jb);
    rowptr[static_cast<std::size_t>(ib) + 1] =
        rowptr[static_cast<std::size_t>(ib)] +
        static_cast<Index>(cols.size());
  }

  const std::size_t nblocks =
      static_cast<std::size_t>(rowptr[static_cast<std::size_t>(mb_)]);
  rowptr_.resize(rowptr.size());
  std::copy(rowptr.begin(), rowptr.end(), rowptr_.begin());
  colidx_.resize(nblocks);
  val_.resize(nblocks * static_cast<std::size_t>(bs) * bs);
  val_.fill(0.0);

  // Pass 2: fill values.
  for (Index ib = 0; ib < mb_; ++ib) {
    const auto& cols = bcols[static_cast<std::size_t>(ib)];
    const Index base = rowptr_[static_cast<std::size_t>(ib)];
    for (std::size_t k = 0; k < cols.size(); ++k) {
      colidx_[static_cast<std::size_t>(base) + k] = cols[k];
    }
    for (Index r = 0; r < bs; ++r) {
      const Index row = ib * bs + r;
      const auto rc = csr.row_cols(row);
      const auto rv = csr.row_vals(row);
      for (std::size_t e = 0; e < rc.size(); ++e) {
        const Index jb = rc[e] / bs;
        // binary search for jb within this block row
        const auto it = std::lower_bound(cols.begin(), cols.end(), jb);
        const Index slot = base + static_cast<Index>(it - cols.begin());
        Scalar* blk = val_.data() +
                      static_cast<std::size_t>(slot) * bs * bs;
        blk[r * bs + (rc[e] % bs)] = rv[e];
      }
    }
  }
  repartition(par::configured_threads());
}

void Bcsr::repartition(int nparts) {
  // Weight each block row by its stored scalars; bs^2 is a common factor,
  // so the block-count prefix (rowptr) balances identically.
  part_ = nnz_balance(rowptr_.data(), mb_, nparts);
}

void Bcsr::spmv(const Scalar* x, Scalar* y) const {
  KESTREL_PROF_SPMV("MatMult(bcsr)", 2 * nnz(), spmv_traffic_bytes());
  auto fn = simd::lookup_as<simd::BcsrSpmvFn>(
      slim_.fp32() ? simd::Op::kBcsrSpmvFp32 : simd::Op::kBcsrSpmv, tier_);
  const BcsrView v = view();
  // Flock: contiguous block-row ranges through offset sub-views. rowptr
  // values are absolute block indices into colidx/val/val32, so only the
  // rowptr pointer and y (by whole blocks) shift.
  par::for_each_part(part_, [&](int, Index b0, Index b1) {
    BcsrView sub = v;
    sub.mb = b1 - b0;
    sub.rowptr = v.rowptr + b0;
    fn(sub, x, y + b0 * bs_);
  });
}

bool Bcsr::set_slim(const SlimOptions& opts) {
  slim_.attach(opts, val_.data(), val_.size());
  return true;
}

void Bcsr::get_diagonal(Vector& d) const {
  KESTREL_CHECK(mb_ == nb_, "get_diagonal requires a square matrix");
  d.resize(rows());
  d.set(0.0);
  for (Index ib = 0; ib < mb_; ++ib) {
    for (Index k = rowptr_[ib]; k < rowptr_[ib + 1]; ++k) {
      if (colidx_[k] == ib) {
        const Scalar* blk =
            val_.data() + static_cast<std::size_t>(k) * bs_ * bs_;
        for (Index r = 0; r < bs_; ++r) d[ib * bs_ + r] = blk[r * bs_ + r];
      }
    }
  }
}

void Bcsr::abft_col_checksum(Vector& c) const {
  c.resize(cols());
  c.set(0.0);
  for (Index ib = 0; ib < mb_; ++ib) {
    for (Index k = rowptr_[ib]; k < rowptr_[ib + 1]; ++k) {
      const Index jb = colidx_[k];
      const Scalar* blk =
          val_.data() + static_cast<std::size_t>(k) * bs_ * bs_;
      for (Index r = 0; r < bs_; ++r) {
        for (Index cc = 0; cc < bs_; ++cc) {
          c[jb * bs_ + cc] += blk[r * bs_ + cc];
        }
      }
    }
  }
}

std::size_t Bcsr::storage_bytes() const {
  return rowptr_.size() * sizeof(Index) + colidx_.size() * sizeof(Index) +
         val_.size() * sizeof(Scalar);
}

// argus-traffic-model: bcsr
// argus-traffic-stream: val = 8 * nblocks * bs * bs
// argus-traffic-stream: colidx = 4 * nblocks
// argus-traffic-stream: rowptr = 4 * mb + 4
// argus-traffic-stream: y = 8 * mb * bs : wa
// argus-traffic-stream: x = 8 * nb * bs
// argus-traffic-bind: val_.size() = nblocks * bs * bs
// argus-traffic-bind: colidx_.size() = nblocks
// argus-traffic-bind: rowptr_.size() = mb + 1
// argus-traffic-bind: sizeof(Scalar) = 8
// argus-traffic-bind: sizeof(Index) = 4
// argus-traffic-bind: rows() = mb * bs
// argus-traffic-bind: cols() = nb * bs
// argus-traffic-cpp: fat_spmv_traffic_bytes
std::size_t Bcsr::fat_spmv_traffic_bytes() const {
  // 8 bytes per stored scalar + 4 bytes per block column index + rowptr +
  // x and y.
  return val_.size() * sizeof(Scalar) + colidx_.size() * sizeof(Index) +
         rowptr_.size() * sizeof(Index) +
         8 * static_cast<std::size_t>(rows() + cols());
}

// Kestrel Slim traffic: fp32 halves the dominant block-value stream; the
// fat val array is not touched by the fp32 kernels.
// argus-traffic-model: bcsr_fp32
// argus-traffic-stream: val32 = 4 * nblocks * bs * bs : esize 4
// argus-traffic-stream: colidx = 4 * nblocks
// argus-traffic-stream: rowptr = 4 * mb + 4
// argus-traffic-stream: y = 8 * mb * bs : wa
// argus-traffic-stream: x = 8 * nb * bs
// argus-traffic-bind: val_.size() = nblocks * bs * bs
// argus-traffic-bind: colidx_.size() = nblocks
// argus-traffic-bind: rowptr_.size() = mb + 1
// argus-traffic-bind: sizeof(Index) = 4
// argus-traffic-bind: rows() = mb * bs
// argus-traffic-bind: cols() = nb * bs
// argus-traffic-cpp: fp32_spmv_traffic_bytes
std::size_t Bcsr::fp32_spmv_traffic_bytes() const {
  return 4 * val_.size() + colidx_.size() * sizeof(Index) +
         rowptr_.size() * sizeof(Index) +
         8 * static_cast<std::size_t>(rows() + cols());
}

std::size_t Bcsr::spmv_traffic_bytes() const {
  return slim_.fp32() ? fp32_spmv_traffic_bytes() : fat_spmv_traffic_bytes();
}

}  // namespace kestrel::mat
