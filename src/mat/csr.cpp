#include "mat/csr.hpp"

#include <algorithm>

#include "base/error.hpp"
#include "mat/walk.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

namespace {

template <class T>
AlignedBuffer<T> to_aligned(const std::vector<T>& v) {
  AlignedBuffer<T> out(v.size());
  std::copy(v.begin(), v.end(), out.begin());
  return out;
}

}  // namespace

template <class Self, class F>
void Csr::walk(Self& self, F f) {
  for (Index i = 0; i < self.m_; ++i) {
    const Index begin = self.rowptr_[i];
    for (Index k = begin; k < self.rowptr_[i + 1]; ++k) {
      f(i, self.colidx_[k], k - begin, self.val_[k]);
    }
  }
}

Csr::Csr(Index m, Index n, std::vector<Index> rowptr,
         std::vector<Index> colidx, std::vector<Scalar> val)
    : Csr(adopt(m, n, to_aligned(rowptr), to_aligned(colidx),
                to_aligned(val))) {}

Csr Csr::adopt(Index m, Index n, AlignedBuffer<Index> rowptr,
               AlignedBuffer<Index> colidx, AlignedBuffer<Scalar> val) {
  Csr a;
  a.m_ = m;
  a.n_ = n;
  a.rowptr_ = std::move(rowptr);
  a.colidx_ = std::move(colidx);
  a.val_ = std::move(val);
  a.validate();
  a.repartition(par::configured_threads());
  return a;
}

void Csr::repartition(int nparts) {
  part_ = nnz_balance(rowptr_.data(), m_, nparts);
}

void Csr::validate() const {
  KESTREL_CHECK(m_ >= 0 && n_ >= 0, "negative dimension");
  KESTREL_CHECK(rowptr_.size() == static_cast<std::size_t>(m_) + 1,
                "rowptr must have m+1 entries");
  KESTREL_CHECK(rowptr_[0] == 0, "rowptr[0] must be 0");
  for (Index i = 0; i < m_; ++i) {
    KESTREL_CHECK(rowptr_[i] <= rowptr_[i + 1], "rowptr must be monotone");
  }
  // Sizes before contents: the column checks below index colidx_ through
  // rowptr_.
  KESTREL_CHECK(colidx_.size() ==
                    static_cast<std::size_t>(
                        rowptr_[static_cast<std::size_t>(m_)]),
                "colidx size mismatch");
  KESTREL_CHECK(val_.size() == colidx_.size(), "val size mismatch");
  for (Index i = 0; i < m_; ++i) {
    for (Index k = rowptr_[i]; k + 1 < rowptr_[i + 1]; ++k) {
      KESTREL_CHECK(colidx_[k] < colidx_[k + 1],
                    "column indices must be strictly increasing per row");
    }
    for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      KESTREL_CHECK(colidx_[k] >= 0 && colidx_[k] < n_,
                    "column index out of range");
    }
  }
}

void Csr::spmv(const Scalar* x, Scalar* y) const {
  KESTREL_PROF_SPMV("MatMult(csr)", 2 * nnz(), spmv_traffic_bytes());
  auto fn = simd::lookup_as<simd::CsrSpmvFn>(
      slim_.fp32() ? simd::Op::kCsrSpmvFp32 : simd::Op::kCsrSpmv, tier_);
  const CsrView v = view();
  if (part_.nparts() <= 1) {
    fn(v, x, y);
    return;
  }
  // Flock: each part multiplies a contiguous row range through an offset
  // sub-view. rowptr values are absolute into colidx/val/val32, so only the
  // rowptr pointer and y shift; per-row accumulation order is untouched
  // and the result is bitwise-identical to the serial multiply.
  par::ThreadPool::rank_pool().run(part_.nparts(), [&](int p, int) {
    const Index r0 = part_.begin(p);
    const Index r1 = part_.end(p);
    if (r0 == r1) return;
    CsrView sub = v;
    sub.m = r1 - r0;
    sub.rowptr = v.rowptr + r0;
    fn(sub, x, y + r0);
  });
}

bool Csr::set_slim(const SlimOptions& opts) {
  slim_.attach(opts, val_.data(), val_.size());
  return true;
}

void Csr::get_diagonal(Vector& d) const {
  KESTREL_CHECK(m_ == n_, "get_diagonal requires a square matrix");
  d.resize(m_);
  for (Index i = 0; i < m_; ++i) d[i] = at(i, i);
}

void Csr::abft_col_checksum(Vector& c) const { Walk::col_sums(*this, c); }

Scalar Csr::at(Index i, Index j) const {
  KESTREL_CHECK(i >= 0 && i < m_ && j >= 0 && j < n_, "index out of range");
  const Index* begin = colidx_.data() + rowptr_[i];
  const Index* end = colidx_.data() + rowptr_[i + 1];
  const Index* it = std::lower_bound(begin, end, j);
  if (it != end && *it == j) return val_[rowptr_[i] + (it - begin)];
  return 0.0;
}

std::size_t Csr::storage_bytes() const {
  return rowptr_.size() * sizeof(Index) + colidx_.size() * sizeof(Index) +
         val_.size() * sizeof(Scalar);
}

// argus-traffic-model: csr
// argus-traffic-stream: val = 8 * nnz
// argus-traffic-stream: colidx = 4 * nnz
// argus-traffic-stream: rowptr = 8 * m : conv
// argus-traffic-stream: y = 16 * m : wa
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: nnz() = nnz
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fat_spmv_traffic_bytes
std::size_t Csr::fat_spmv_traffic_bytes() const {
  // Paper section 6: 12*nnz + 24*m + 8*n bytes — 12 bytes per stored
  // element (8 value + 4 column index), 24 bytes per row (output vector
  // write-allocate + the rowptr arrays of the diagonal and off-diagonal
  // blocks), 8 bytes per column for the input vector.
  return static_cast<std::size_t>(12 * nnz()) +
         24 * static_cast<std::size_t>(m_) + 8 * static_cast<std::size_t>(n_);
}

// Kestrel Slim traffic: the value stream shrinks to 4 bytes per nonzero;
// the fat val array is not touched by the fp32 kernels.
// argus-traffic-model: csr_fp32
// argus-traffic-stream: val32 = 4 * nnz : esize 4
// argus-traffic-stream: colidx = 4 * nnz
// argus-traffic-stream: rowptr = 8 * m : conv
// argus-traffic-stream: y = 16 * m : wa
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: nnz() = nnz
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fp32_spmv_traffic_bytes
std::size_t Csr::fp32_spmv_traffic_bytes() const {
  return static_cast<std::size_t>(8 * nnz()) +
         24 * static_cast<std::size_t>(m_) + 8 * static_cast<std::size_t>(n_);
}

std::size_t Csr::spmv_traffic_bytes() const {
  return slim_.fp32() ? fp32_spmv_traffic_bytes() : fat_spmv_traffic_bytes();
}

void Csr::copy_values_from(const Csr& other) {
  Walk::copy_values(*this, other);
  slim_.refresh_values(val_.data(), val_.size());
}

Csr Csr::transpose() const {
  AlignedBuffer<Index> rowptr(static_cast<std::size_t>(n_) + 1, 0);
  const Index total = static_cast<Index>(nnz());
  for (Index k = 0; k < total; ++k) {
    rowptr[static_cast<std::size_t>(colidx_[k]) + 1]++;
  }
  for (Index j = 0; j < n_; ++j) {
    rowptr[static_cast<std::size_t>(j) + 1] +=
        rowptr[static_cast<std::size_t>(j)];
  }
  AlignedBuffer<Index> colidx(static_cast<std::size_t>(total));
  AlignedBuffer<Scalar> val(static_cast<std::size_t>(total));
  std::vector<Index> next(rowptr.begin(), rowptr.end() - 1);
  for (Index i = 0; i < m_; ++i) {
    for (Index k = rowptr_[i]; k < rowptr_[i + 1]; ++k) {
      const Index pos = next[static_cast<std::size_t>(colidx_[k])]++;
      colidx[static_cast<std::size_t>(pos)] = i;
      val[static_cast<std::size_t>(pos)] = val_[k];
    }
  }
  return adopt(n_, m_, std::move(rowptr), std::move(colidx), std::move(val));
}

Csr Csr::extract(const std::vector<Index>& rows,
                 const std::vector<Index>& cols) const {
  KESTREL_CHECK(std::is_sorted(cols.begin(), cols.end()),
                "extract requires sorted columns");
  // global column -> local column map
  std::vector<Index> colmap(static_cast<std::size_t>(n_), -1);
  for (std::size_t j = 0; j < cols.size(); ++j) {
    KESTREL_CHECK(cols[j] >= 0 && cols[j] < n_, "extract column range");
    colmap[static_cast<std::size_t>(cols[j])] = static_cast<Index>(j);
  }
  std::vector<Index> rowptr;
  rowptr.reserve(rows.size() + 1);
  rowptr.push_back(0);
  std::vector<Index> colidx;
  std::vector<Scalar> val;
  for (Index gi : rows) {
    KESTREL_CHECK(gi >= 0 && gi < m_, "extract row range");
    for (Index k = rowptr_[gi]; k < rowptr_[gi + 1]; ++k) {
      const Index lj = colmap[static_cast<std::size_t>(colidx_[k])];
      if (lj >= 0) {
        colidx.push_back(lj);
        val.push_back(val_[k]);
      }
    }
    rowptr.push_back(static_cast<Index>(colidx.size()));
  }
  return Csr(static_cast<Index>(rows.size()), static_cast<Index>(cols.size()),
             std::move(rowptr), std::move(colidx), std::move(val));
}

Index Csr::max_row_nnz() const {
  Index best = 0;
  for (Index i = 0; i < m_; ++i) best = std::max(best, row_nnz(i));
  return best;
}

}  // namespace kestrel::mat
