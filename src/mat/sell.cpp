#include "mat/sell.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

Sell::Sell(const Csr& csr, SellOptions opts) { build(csr, opts); }

void Sell::build(const Csr& csr, const SellOptions& opts) {
  KESTREL_CHECK(opts.slice_height >= 1 && opts.slice_height <= 64,
                "slice height must be in [1, 64]");
  KESTREL_CHECK(opts.sigma >= 1, "sigma must be >= 1");
  m_ = csr.rows();
  n_ = csr.cols();
  c_ = opts.slice_height;
  sigma_ = opts.sigma;
  nnz_ = csr.nnz();
  nslices_ = m_ == 0 ? 0 : (m_ + c_ - 1) / c_;

  // Row order: identity, or SELL-C-sigma local sorting by descending row
  // length within windows of `sigma` rows (section 5.4).
  perm_.clear();
  if (sigma_ > 1) {
    perm_.resize(static_cast<std::size_t>(m_));
    std::iota(perm_.begin(), perm_.end(), Index{0});
    for (Index w = 0; w < m_; w += sigma_) {
      const Index we = std::min<Index>(w + sigma_, m_);
      std::stable_sort(perm_.begin() + w, perm_.begin() + we,
                       [&csr](Index a, Index b) {
                         return csr.row_nnz(a) > csr.row_nnz(b);
                       });
    }
  }
  auto logical_row = [this](Index p) {
    return perm_.empty() ? p : perm_[static_cast<std::size_t>(p)];
  };

  // Slice lengths = max row length in each slice; padded rows contribute 0.
  rlen_.resize(static_cast<std::size_t>(m_));
  sliceptr_.resize(static_cast<std::size_t>(nslices_) + 1);
  sliceptr_[0] = 0;
  std::int64_t total = 0;
  for (Index s = 0; s < nslices_; ++s) {
    Index slice_len = 0;
    for (Index lane = 0; lane < c_; ++lane) {
      const Index p = s * c_ + lane;
      if (p >= m_) break;
      const Index len = csr.row_nnz(logical_row(p));
      rlen_[static_cast<std::size_t>(p)] = len;
      slice_len = std::max(slice_len, len);
    }
    total += static_cast<std::int64_t>(slice_len) * c_;
    KESTREL_CHECK(total <= std::numeric_limits<Index>::max(),
                  "SELL storage exceeds 32-bit indexing; shrink the local "
                  "block or rebuild with 64-bit Index");
    sliceptr_[static_cast<std::size_t>(s) + 1] = static_cast<Index>(total);
  }

  val_.resize(static_cast<std::size_t>(total));
  colidx_.resize(static_cast<std::size_t>(total));
  val_.fill(0.0);

  // Fill slice-column-major. Padded entries get value 0 and a column index
  // copied from the row's last real entry (section 5.5) so gathers stay on
  // addresses the row already touches.
  for (Index s = 0; s < nslices_; ++s) {
    const Index base = sliceptr_[static_cast<std::size_t>(s)];
    const Index width = (sliceptr_[static_cast<std::size_t>(s) + 1] - base) / c_;
    for (Index lane = 0; lane < c_; ++lane) {
      const Index p = s * c_ + lane;
      const bool real_row = p < m_;
      const Index r = real_row ? logical_row(p) : 0;
      const Index len = real_row ? csr.row_nnz(r) : 0;
      const auto cols = real_row ? csr.row_cols(r) : std::span<const Index>{};
      const auto vals =
          real_row ? csr.row_vals(r) : std::span<const Scalar>{};
      const Index padcol = len > 0 ? cols[static_cast<std::size_t>(len - 1)]
                                   : Index{0};
      for (Index j = 0; j < width; ++j) {
        const Index k = base + j * c_ + lane;
        if (j < len) {
          colidx_[static_cast<std::size_t>(k)] =
              cols[static_cast<std::size_t>(j)];
          val_[static_cast<std::size_t>(k)] =
              vals[static_cast<std::size_t>(j)];
        } else {
          colidx_[static_cast<std::size_t>(k)] = padcol;
        }
      }
    }
  }

  if (opts.build_bitmask) {
    KESTREL_CHECK(c_ <= 64, "bitmask variant requires slice height <= 64");
    bitmask_.resize(static_cast<std::size_t>(total / c_));
    for (Index s = 0; s < nslices_; ++s) {
      const Index base = sliceptr_[static_cast<std::size_t>(s)];
      const Index width =
          (sliceptr_[static_cast<std::size_t>(s) + 1] - base) / c_;
      for (Index j = 0; j < width; ++j) {
        std::uint64_t mask = 0;
        for (Index lane = 0; lane < c_; ++lane) {
          const Index p = s * c_ + lane;
          if (p < m_ && j < rlen_[static_cast<std::size_t>(p)]) {
            mask |= std::uint64_t{1} << lane;
          }
        }
        bitmask_[static_cast<std::size_t>((base + j * c_) / c_)] = mask;
      }
    }
  } else {
    bitmask_.resize(0);
  }
  repartition(par::configured_threads());
}

void Sell::repartition(int nparts) {
  part_ = nnz_balance(sliceptr_.data(), nslices_, nparts);
}

void Sell::run_partitioned(simd::SellSpmvFn fn, const Scalar* x,
                           Scalar* out) const {
  const SellView v = view();
  if (part_.nparts() <= 1) {
    fn(v, x, out);
    return;
  }
  par::ThreadPool::rank_pool().run(part_.nparts(), [&](int p, int) {
    const Index s0 = part_.begin(p);
    const Index s1 = part_.end(p);
    if (s0 == s1) return;
    // Slice s0+s' becomes local slice s': the kernel derives row0 = s'*c, so
    // output shifts by s0*c and the local m clips the final partial slice.
    // sliceptr values stay absolute into colidx/val/val32 (and the bitmask,
    // which kernels index by absolute element position), so those pointers
    // do not move.
    const Index row0 = s0 * c_;
    SellView sub = v;
    sub.m = std::min(m_ - row0, (s1 - s0) * c_);
    sub.nslices = s1 - s0;
    sub.sliceptr = v.sliceptr + s0;
    fn(sub, x, out + row0);
  });
}

simd::IsaTier Sell::vector_tier() const {
  // Kernel tier constraints: the AVX-512 kernels need c % 8 == 0, the
  // AVX/AVX2 kernels need c % 4 == 0; anything else runs scalar.
  simd::IsaTier want = tier_;
  if (want == simd::IsaTier::kAvx512 && c_ % 8 != 0) {
    want = simd::IsaTier::kAvx2;
  }
  if ((want == simd::IsaTier::kAvx2 || want == simd::IsaTier::kAvx) &&
      c_ % 4 != 0) {
    want = simd::IsaTier::kScalar;
  }
  return want;
}

void Sell::spmv(const Scalar* x, Scalar* y) const {
  KESTREL_PROF_SPMV("MatMult(sell)", 2 * nnz(), spmv_traffic_bytes());
  auto fn = simd::lookup_as<simd::SellSpmvFn>(
      slim_.fp32() ? simd::Op::kSellSpmvFp32 : simd::Op::kSellSpmv,
      vector_tier());
  if (perm_.empty()) {
    run_partitioned(fn, x, y);
    return;
  }
  sorted_tmp_.resize(m_);
  run_partitioned(fn, x, sorted_tmp_.data());
  spmv_sorted_fixup(y);
}

bool Sell::set_slim(const SlimOptions& opts) {
  slim_.attach(opts, val_.data(), val_.size());
  return true;
}

void Sell::spmv_bitmask(const Scalar* x, Scalar* y) const {
  KESTREL_CHECK(has_bitmask(), "bitmask kernel requires build_bitmask");
  simd::IsaTier want = tier_;
  if (want != simd::IsaTier::kScalar) {
    // only scalar and AVX-512 masked variants exist
    want = (c_ % 8 == 0) ? simd::IsaTier::kAvx512 : simd::IsaTier::kScalar;
  }
  auto fn =
      simd::lookup_as<simd::SellSpmvFn>(simd::Op::kSellSpmvBitmask, want);
  if (perm_.empty()) {
    run_partitioned(fn, x, y);
    return;
  }
  sorted_tmp_.resize(m_);
  run_partitioned(fn, x, sorted_tmp_.data());
  spmv_sorted_fixup(y);
}

void Sell::spmv_prefetch(const Scalar* x, Scalar* y) const {
  simd::IsaTier want =
      (c_ == 8) ? tier_ : simd::IsaTier::kScalar;
  auto fn = simd::lookup_as<simd::SellSpmvFn>(simd::Op::kSellSpmvPrefetch,
                                              want);
  if (perm_.empty()) {
    fn(view(), x, y);
    return;
  }
  sorted_tmp_.resize(m_);
  fn(view(), x, sorted_tmp_.data());
  spmv_sorted_fixup(y);
}

void Sell::spmv_sorted_fixup(Scalar* y) const {
  // Scatter back to logical row order. perm_ is a permutation, so the
  // partition's row ranges write disjoint y entries; the same slice bounds
  // as the multiply keep the pool's part->thread mapping aligned.
  if (part_.nparts() <= 1) {
    for (Index p = 0; p < m_; ++p) {
      y[perm_[static_cast<std::size_t>(p)]] = sorted_tmp_[p];
    }
    return;
  }
  par::ThreadPool::rank_pool().run(part_.nparts(), [&](int part, int) {
    const Index p0 = part_.begin(part) * c_;
    const Index p1 = std::min(part_.end(part) * c_, m_);
    for (Index p = p0; p < p1; ++p) {
      y[perm_[static_cast<std::size_t>(p)]] = sorted_tmp_[p];
    }
  });
}

void Sell::abft_col_checksum(Vector& c) const {
  c.resize(n_);
  c.set(0.0);
  // rlen bounds the walk to real entries, so padding (whatever column index
  // it carries) never contributes.
  for (Index p = 0; p < m_; ++p) {
    const Index s = p / c_;
    const Index lane = p % c_;
    const Index base = sliceptr_[static_cast<std::size_t>(s)];
    for (Index j = 0; j < rlen_[static_cast<std::size_t>(p)]; ++j) {
      const std::size_t k = static_cast<std::size_t>(base + j * c_ + lane);
      c[colidx_[k]] += val_[k];
    }
  }
}

void Sell::get_diagonal(Vector& d) const {
  KESTREL_CHECK(m_ == n_, "get_diagonal requires a square matrix");
  d.resize(m_);
  d.set(0.0);
  for (Index p = 0; p < m_; ++p) {
    const Index r = perm(p);
    const Index s = p / c_;
    const Index lane = p % c_;
    const Index base = sliceptr_[static_cast<std::size_t>(s)];
    for (Index j = 0; j < rlen_[static_cast<std::size_t>(p)]; ++j) {
      const Index k = base + j * c_ + lane;
      if (colidx_[static_cast<std::size_t>(k)] == r) {
        d[r] = val_[static_cast<std::size_t>(k)];
        break;
      }
    }
  }
}

std::size_t Sell::storage_bytes() const {
  return sliceptr_.size() * sizeof(Index) + colidx_.size() * sizeof(Index) +
         val_.size() * sizeof(Scalar) + rlen_.size() * sizeof(Index) +
         perm_.size() * sizeof(Index) +
         bitmask_.size() * sizeof(std::uint64_t);
}

// argus-traffic-model: sell
// argus-traffic-stream: val = 8 * nnz
// argus-traffic-stream: colidx = 4 * nnz
// argus-traffic-stream: sliceptr = 2 * m : conv
// argus-traffic-stream: y = 8 * m
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: nnz() = nnz
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fat_spmv_traffic_bytes
std::size_t Sell::fat_spmv_traffic_bytes() const {
  // Paper section 6: 12*nnz + 10*m + 8*n bytes — the slice pointer array is
  // only m/8 integers, rlen is not touched by SpMV, so per-row metadata
  // shrinks from 24 to 10 bytes. Padded zeros are deliberately NOT counted
  // ("extra memory overhead contributed by padded zeros are not counted").
  return static_cast<std::size_t>(12 * nnz()) +
         10 * static_cast<std::size_t>(m_) + 8 * static_cast<std::size_t>(n_);
}

// Kestrel Slim traffic: the value stream shrinks to 4 bytes per element;
// the fat val array is not touched by the fp32 kernels.
// argus-traffic-model: sell_fp32
// argus-traffic-stream: val32 = 4 * nnz : esize 4
// argus-traffic-stream: colidx = 4 * nnz
// argus-traffic-stream: sliceptr = 2 * m : conv
// argus-traffic-stream: y = 8 * m
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: nnz() = nnz
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fp32_spmv_traffic_bytes
std::size_t Sell::fp32_spmv_traffic_bytes() const {
  return static_cast<std::size_t>(8 * nnz()) +
         10 * static_cast<std::size_t>(m_) + 8 * static_cast<std::size_t>(n_);
}

std::size_t Sell::spmv_traffic_bytes() const {
  return slim_.fp32() ? fp32_spmv_traffic_bytes() : fat_spmv_traffic_bytes();
}

void Sell::copy_values_from(const Csr& csr) {
  KESTREL_CHECK(csr.rows() == m_ && csr.cols() == n_ && csr.nnz() == nnz_,
                "copy_values_from: shape mismatch");
  for (Index p = 0; p < m_; ++p) {
    const Index r = perm(p);
    KESTREL_CHECK(csr.row_nnz(r) == rlen_[static_cast<std::size_t>(p)],
                  "copy_values_from: row length changed");
    const auto cols = csr.row_cols(r);
    const auto vals = csr.row_vals(r);
    const Index s = p / c_;
    const Index lane = p % c_;
    const Index base = sliceptr_[static_cast<std::size_t>(s)];
    for (Index j = 0; j < rlen_[static_cast<std::size_t>(p)]; ++j) {
      const Index k = base + j * c_ + lane;
      KESTREL_CHECK(colidx_[static_cast<std::size_t>(k)] ==
                        cols[static_cast<std::size_t>(j)],
                    "copy_values_from: sparsity pattern changed");
      val_[static_cast<std::size_t>(k)] = vals[static_cast<std::size_t>(j)];
    }
  }
  slim_.refresh_values(val_.data(), val_.size());
}

Csr Sell::to_csr() const {
  std::vector<Index> rowptr(static_cast<std::size_t>(m_) + 1, 0);
  for (Index p = 0; p < m_; ++p) {
    rowptr[static_cast<std::size_t>(perm(p)) + 1] =
        rlen_[static_cast<std::size_t>(p)];
  }
  for (Index i = 0; i < m_; ++i) {
    rowptr[static_cast<std::size_t>(i) + 1] +=
        rowptr[static_cast<std::size_t>(i)];
  }
  const std::size_t total = static_cast<std::size_t>(
      m_ == 0 ? 0 : rowptr[static_cast<std::size_t>(m_)]);
  std::vector<Index> colidx(total);
  std::vector<Scalar> val(total);
  for (Index p = 0; p < m_; ++p) {
    const Index r = perm(p);
    const Index s = p / c_;
    const Index lane = p % c_;
    const Index base = sliceptr_[static_cast<std::size_t>(s)];
    Index dst = rowptr[static_cast<std::size_t>(r)];
    for (Index j = 0; j < rlen_[static_cast<std::size_t>(p)]; ++j, ++dst) {
      const Index k = base + j * c_ + lane;
      colidx[static_cast<std::size_t>(dst)] =
          colidx_[static_cast<std::size_t>(k)];
      val[static_cast<std::size_t>(dst)] = val_[static_cast<std::size_t>(k)];
    }
  }
  return Csr(m_, n_, std::move(rowptr), std::move(colidx), std::move(val));
}

}  // namespace kestrel::mat
