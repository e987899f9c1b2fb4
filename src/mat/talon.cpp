#include "mat/talon.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <span>
#include <vector>

#include "base/error.hpp"
#include "mat/csr.hpp"
#include "mat/walk.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

namespace {

/// Output sink for walk_panel; null pointers mean count-only.
struct PanelSink {
  std::vector<Index>* block_col = nullptr;
  std::vector<std::uint32_t>* block_mask = nullptr;
  std::vector<Scalar>* val = nullptr;
};

/// Covers rows [row0, row0+r) with beta blocks: each block starts at the
/// smallest not-yet-covered column over all r rows and spans kZmmDoubles
/// consecutive columns. Returns the block count; when `out` has sinks,
/// appends the block metadata and the packed values in (block, row,
/// ascending-column) order — exactly the order the kernels consume.
Index walk_panel(const Csr& csr, Index row0, Index r, const PanelSink& out) {
  std::span<const Index> cols[4];
  std::span<const Scalar> vals[4];
  Index cur[4] = {0, 0, 0, 0};
  for (Index j = 0; j < r; ++j) {
    cols[j] = csr.row_cols(row0 + j);
    vals[j] = csr.row_vals(row0 + j);
  }
  Index nblocks = 0;
  for (;;) {
    Index c0 = std::numeric_limits<Index>::max();
    for (Index j = 0; j < r; ++j) {
      if (cur[j] < static_cast<Index>(cols[j].size())) {
        c0 = std::min(c0, cols[j][static_cast<std::size_t>(cur[j])]);
      }
    }
    if (c0 == std::numeric_limits<Index>::max()) break;
    ++nblocks;
    std::uint32_t mask = 0;
    for (Index j = 0; j < r; ++j) {
      std::uint32_t row_bits = 0;
      const auto len = static_cast<Index>(cols[j].size());
      while (cur[j] < len &&
             cols[j][static_cast<std::size_t>(cur[j])] < c0 + kZmmDoubles) {
        const Index col = cols[j][static_cast<std::size_t>(cur[j])];
        row_bits |= 1u << static_cast<unsigned>(col - c0);
        if (out.val != nullptr) {
          out.val->push_back(vals[j][static_cast<std::size_t>(cur[j])]);
        }
        ++cur[j];
      }
      mask |= row_bits << (8u * static_cast<unsigned>(j));
    }
    if (out.block_col != nullptr) {
      out.block_col->push_back(c0);
      out.block_mask->push_back(mask);
    }
  }
  return nblocks;
}

}  // namespace

template <class Self, class F>
void Talon::walk(Self& self, F f) {
  Index v = 0;
  for (Index p = 0; p < self.npanels_; ++p) {
    const Index row0 = self.panel_row_[p];
    const Index r = self.panel_row_[p + 1] - row0;
    // Blocks ascend in start column and bits ascend within a block, so each
    // panel row's entries come in CSR order.
    Index pos[4] = {0, 0, 0, 0};
    for (Index b = self.panel_blockptr_[p]; b < self.panel_blockptr_[p + 1];
         ++b) {
      const Index c0 = self.block_col_[b];
      const std::uint32_t mask = self.block_mask_[b];
      for (Index j = 0; j < r; ++j) {
        std::uint32_t bits = (mask >> (8u * static_cast<unsigned>(j))) & 0xFFu;
        for (; bits != 0; bits &= bits - 1) {
          f(row0 + j, c0 + std::countr_zero(bits), pos[j]++, self.val_[v++]);
        }
      }
    }
  }
}

Talon::Talon(const Csr& csr, TalonOptions opts) { build(csr, opts); }

void Talon::build(const Csr& csr, const TalonOptions& opts) {
  KESTREL_CHECK(opts.force_r == 0 || opts.force_r == 1 || opts.force_r == 2 ||
                    opts.force_r == 4,
                "Talon panel height must be 1, 2 or 4 (0 = auto)");
  m_ = csr.rows();
  n_ = csr.cols();
  nnz_ = csr.nnz();
  // Blocks cover consecutive columns, so the inspector needs column-sorted
  // rows (Coo::to_csr produces them; assert rather than silently miscount).
  for (Index i = 0; i < m_; ++i) {
    const auto cols = csr.row_cols(i);
    KESTREL_CHECK(std::is_sorted(cols.begin(), cols.end()),
                  "Talon requires column-sorted CSR rows");
  }

  std::vector<Index> panel_row{0};
  std::vector<Index> panel_blockptr{0};
  std::vector<Index> panel_valptr{0};
  std::vector<Index> block_col;
  std::vector<std::uint32_t> block_mask;
  std::vector<Scalar> val;
  block_col.reserve(static_cast<std::size_t>(nnz_ / 4 + 1));
  val.reserve(static_cast<std::size_t>(nnz_));

  Index pos = 0;
  while (pos < m_) {
    const Index remaining = m_ - pos;
    Index r = 1;
    if (opts.force_r != 0) {
      // Uniform height; the tail decomposes into the largest legal heights.
      r = opts.force_r;
      while (r > remaining) r /= 2;
    } else {
      // Inspector: per-row cost of covering rows [pos, pos+r) as one panel
      // is nblocks * (r value streams + 1 block of x/metadata) / r. Ties go
      // to the taller panel (fewer panels, wider accumulator reuse).
      double best = std::numeric_limits<double>::max();
      for (const Index cand : {Index{4}, Index{2}, Index{1}}) {
        if (cand > remaining) continue;
        const Index nb = walk_panel(csr, pos, cand, PanelSink{});
        const double score = static_cast<double>(nb) *
                             static_cast<double>(cand + 1) /
                             static_cast<double>(cand);
        if (score < best) {
          best = score;
          r = cand;
        }
      }
    }
    const PanelSink sink{&block_col, &block_mask, &val};
    walk_panel(csr, pos, r, sink);
    pos += r;
    panel_row.push_back(pos);
    panel_blockptr.push_back(static_cast<Index>(block_col.size()));
    panel_valptr.push_back(static_cast<Index>(val.size()));
  }
  npanels_ = static_cast<Index>(panel_row.size()) - 1;
  KESTREL_CHECK(static_cast<std::int64_t>(val.size()) == nnz_,
                "Talon inspector lost nonzeros");

  const auto copy_to = [](auto& dst, const auto& src) {
    dst.resize(src.size());
    std::copy(src.begin(), src.end(), dst.data());
  };
  copy_to(panel_row_, panel_row);
  copy_to(panel_blockptr_, panel_blockptr);
  copy_to(panel_valptr_, panel_valptr);
  copy_to(block_col_, block_col);
  copy_to(block_mask_, block_mask);
  copy_to(val_, val);
  repartition(par::configured_threads());
}

void Talon::repartition(int nparts) {
  part_ = nnz_balance(panel_valptr_.data(), npanels_, nparts);
}

void Talon::spmv(const Scalar* x, Scalar* y) const {
  KESTREL_PROF_SPMV("MatMult(talon)", 2 * nnz(), spmv_traffic_bytes());
  // No tier constraints: every kernel handles all panel heights, and the
  // missing AVX tier falls back to scalar through dispatch.
  auto fn = simd::lookup_as<simd::TalonSpmvFn>(
      slim_.fp32() ? simd::Op::kTalonSpmvFp32 : simd::Op::kTalonSpmv, tier_);
  const TalonView v = view();
  // Flock: contiguous panel ranges through offset sub-views. All three
  // panel arrays hold absolute positions (rows, blocks, values), so only
  // their pointers shift; the kernels write y[panel_row[p] + j] absolutely,
  // so y does not move and panels' disjoint row ranges keep writes
  // race-free.
  par::for_each_part(part_, [&](int, Index p0, Index p1) {
    TalonView sub = v;
    sub.npanels = p1 - p0;
    sub.panel_row = v.panel_row + p0;
    sub.panel_blockptr = v.panel_blockptr + p0;
    sub.panel_valptr = v.panel_valptr + p0;
    fn(sub, x, y);
  });
}

bool Talon::set_slim(const SlimOptions& opts) {
  // The fp32 shadow mirrors the packed value order exactly.
  slim_.attach(opts, val_.data(), val_.size());
  return true;
}

double Talon::block_fill() const {
  std::int64_t capacity = 0;
  for (Index p = 0; p < npanels_; ++p) {
    const Index r = panel_row_[static_cast<std::size_t>(p) + 1] -
                    panel_row_[static_cast<std::size_t>(p)];
    const Index nb = panel_blockptr_[static_cast<std::size_t>(p) + 1] -
                     panel_blockptr_[static_cast<std::size_t>(p)];
    capacity += static_cast<std::int64_t>(r) * kZmmDoubles * nb;
  }
  return capacity == 0
             ? 1.0
             : static_cast<double>(nnz_) / static_cast<double>(capacity);
}

Index Talon::panels_with_r(Index r) const {
  Index count = 0;
  for (Index p = 0; p < npanels_; ++p) {
    if (panel_row_[static_cast<std::size_t>(p) + 1] -
            panel_row_[static_cast<std::size_t>(p)] ==
        r) {
      ++count;
    }
  }
  return count;
}

void Talon::get_diagonal(Vector& d) const { Walk::diagonal(*this, d); }

void Talon::abft_col_checksum(Vector& c) const { Walk::col_sums(*this, c); }

std::size_t Talon::storage_bytes() const {
  return (panel_row_.size() + panel_blockptr_.size() + panel_valptr_.size() +
          block_col_.size()) *
             sizeof(Index) +
         block_mask_.size() * sizeof(std::uint32_t) +
         val_.size() * sizeof(Scalar);
}

// argus-traffic-model: talon
// argus-traffic-stream: val = 8 * nnz
// argus-traffic-stream: block_col = 4 * nblocks
// argus-traffic-stream: block_mask = 4 * nblocks
// argus-traffic-stream: panel_row = 4 * npanels
// argus-traffic-stream: panel_blockptr = 4 * npanels
// argus-traffic-stream: panel_valptr = 4 * npanels
// argus-traffic-stream: y = 8 * m : wa
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: num_blocks() = nblocks
// argus-traffic-bind: nnz_ = nnz
// argus-traffic-bind: npanels_ = npanels
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fat_spmv_traffic_bytes
std::size_t Talon::fat_spmv_traffic_bytes() const {
  // Section 6-style model: 8 bytes per stored value (no per-entry column
  // index — that is the point of the format), 8 bytes per block (4 start
  // column + 4 mask), 12 bytes per panel (row/blockptr/valptr entries),
  // plus the x and y vectors.
  return 8 * static_cast<std::size_t>(nnz_) +
         8 * static_cast<std::size_t>(num_blocks()) +
         12 * static_cast<std::size_t>(npanels_) +
         8 * static_cast<std::size_t>(n_) + 8 * static_cast<std::size_t>(m_);
}

// Kestrel Slim traffic: only the packed value stream changes (4 B fp32
// instead of 8 B double); the block/panel metadata is identical and the fat
// val array is not touched by the fp32 kernels.
// argus-traffic-model: talon_fp32
// argus-traffic-stream: val32 = 4 * nnz : esize 4
// argus-traffic-stream: block_col = 4 * nblocks
// argus-traffic-stream: block_mask = 4 * nblocks
// argus-traffic-stream: panel_row = 4 * npanels
// argus-traffic-stream: panel_blockptr = 4 * npanels
// argus-traffic-stream: panel_valptr = 4 * npanels
// argus-traffic-stream: y = 8 * m : wa
// argus-traffic-stream: x = 8 * n
// argus-traffic-bind: num_blocks() = nblocks
// argus-traffic-bind: nnz_ = nnz
// argus-traffic-bind: npanels_ = npanels
// argus-traffic-bind: m_ = m
// argus-traffic-bind: n_ = n
// argus-traffic-cpp: fp32_spmv_traffic_bytes
std::size_t Talon::fp32_spmv_traffic_bytes() const {
  return 4 * static_cast<std::size_t>(nnz_) +
         8 * static_cast<std::size_t>(num_blocks()) +
         12 * static_cast<std::size_t>(npanels_) +
         8 * static_cast<std::size_t>(n_) + 8 * static_cast<std::size_t>(m_);
}

std::size_t Talon::spmv_traffic_bytes() const {
  return slim_.fp32() ? fp32_spmv_traffic_bytes() : fat_spmv_traffic_bytes();
}

void Talon::copy_values_from(const Csr& csr) {
  Walk::copy_values(*this, csr);
  slim_.refresh_values(val_.data(), val_.size());
}

Csr Talon::to_csr() const { return Walk::to_csr(*this); }

}  // namespace kestrel::mat
