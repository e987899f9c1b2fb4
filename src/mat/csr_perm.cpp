#include "mat/csr_perm.hpp"

#include <algorithm>
#include <numeric>

#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::mat {

CsrPerm::CsrPerm(Csr csr) : csr_(std::move(csr)) {
  const Index m = csr_.rows();
  std::vector<Index> order(static_cast<std::size_t>(m));
  std::iota(order.begin(), order.end(), Index{0});
  // Stable sort by row length keeps ascending row order within a group,
  // which preserves some locality in the output vector.
  std::stable_sort(order.begin(), order.end(), [this](Index a, Index b) {
    return csr_.row_nnz(a) < csr_.row_nnz(b);
  });

  perm_.resize(static_cast<std::size_t>(m));
  std::copy(order.begin(), order.end(), perm_.begin());

  std::vector<Index> begins;
  std::vector<Index> rlens;
  Index i = 0;
  while (i < m) {
    const Index len = csr_.row_nnz(order[static_cast<std::size_t>(i)]);
    begins.push_back(i);
    rlens.push_back(len);
    while (i < m && csr_.row_nnz(order[static_cast<std::size_t>(i)]) == len) {
      ++i;
    }
  }
  begins.push_back(m);
  ngroups_ = static_cast<Index>(rlens.size());
  group_begin_.resize(begins.size());
  std::copy(begins.begin(), begins.end(), group_begin_.begin());
  group_rlen_.resize(rlens.size());
  std::copy(rlens.begin(), rlens.end(), group_rlen_.begin());
  repartition(par::configured_threads());
}

void CsrPerm::repartition(int nparts) {
  // Units are the AVX-512 kernel's width-8 bundles: within each group,
  // full chunks of 8 permuted positions, then one remainder chunk. A
  // partition boundary can therefore only fall on group_begin[g] + 8k —
  // splitting anywhere else would move rows between the vectorized path
  // (FMA accumulation) and the scalar remainder path and change rounding.
  std::vector<Index> chunk_start;
  std::vector<Index> chunk_group;
  std::vector<std::int64_t> weights;
  for (Index g = 0; g < ngroups_; ++g) {
    const Index gb = group_begin_[static_cast<std::size_t>(g)];
    const Index ge = group_begin_[static_cast<std::size_t>(g) + 1];
    const std::int64_t len = group_rlen_[static_cast<std::size_t>(g)];
    Index p = gb;
    for (; p + kZmmDoubles <= ge; p += kZmmDoubles) {
      chunk_start.push_back(p);
      chunk_group.push_back(g);
      weights.push_back(kZmmDoubles * len);
    }
    if (p < ge) {
      chunk_start.push_back(p);
      chunk_group.push_back(g);
      weights.push_back((ge - p) * len);
    }
  }
  chunk_start.push_back(rows());

  part_ = nnz_balance_weights(weights, nparts);
  part_groups_.assign(static_cast<std::size_t>(part_.nparts()), {});
  for (int k = 0; k < part_.nparts(); ++k) {
    PartGroups& pg = part_groups_[static_cast<std::size_t>(k)];
    Index last_group = -1;
    for (Index c = part_.begin(k); c < part_.end(k); ++c) {
      const Index g = chunk_group[static_cast<std::size_t>(c)];
      if (g != last_group) {
        pg.begin.push_back(chunk_start[static_cast<std::size_t>(c)]);
        pg.rlen.push_back(group_rlen_[static_cast<std::size_t>(g)]);
        last_group = g;
      }
    }
    pg.begin.push_back(chunk_start[static_cast<std::size_t>(part_.end(k))]);
  }
}

void CsrPerm::spmv(const Scalar* x, Scalar* y) const {
  KESTREL_PROF_SPMV("MatMult(csrperm)", 2 * nnz(), spmv_traffic_bytes());
  auto fn = simd::lookup_as<simd::CsrPermSpmvFn>(
      slim_active() ? simd::Op::kCsrPermSpmvFp32 : simd::Op::kCsrPermSpmv,
      tier_);
  if (part_.nparts() <= 1) {
    fn(view(), x, y);
    return;
  }
  // Flock: each part runs the unmodified kernel over its synthesized group
  // table. Positions, perm, rowptr/colidx/val and the y scatter are all
  // absolute, so only the group arrays differ from the serial view.
  par::ThreadPool::rank_pool().run(part_.nparts(), [&](int p, int) {
    const PartGroups& pg = part_groups_[static_cast<std::size_t>(p)];
    if (pg.rlen.empty()) return;
    const CsrPermView sub{csr_.view(), static_cast<Index>(pg.rlen.size()),
                          pg.begin.data(), perm_.data(), pg.rlen.data()};
    fn(sub, x, y);
  });
}

std::size_t CsrPerm::storage_bytes() const {
  return csr_.storage_bytes() +
         (group_begin_.size() + perm_.size() + group_rlen_.size()) *
             sizeof(Index);
}

}  // namespace kestrel::mat
