#pragma once
// Kestrel Flock: nnz-balanced partitioning of a format's work units.
//
// Every threaded format splits its outer loop into contiguous unit ranges —
// CSR rows, SELL slices, BCSR block rows, Talon panels, CSR-perm vector
// chunks — and the partition is computed ONCE at inspection time from the
// format's own prefix-sum of stored work (rowptr, sliceptr, ...), then
// stored on the matrix. par::for_each_part (par/pool.hpp) runs it: inline
// when it has one part, else each non-empty part on the rank's pool.
// Balancing on nonzeros rather than rows is what keeps power-law matrices
// from serializing: with row-balanced splits one dense row drags its whole
// partition, while the nnz target puts the split right after it.
//
// The boundary rule is a lower_bound per target: part k starts at the first
// unit whose prefix weight reaches k·T/P (T = total weight, P = parts).
// That gives, for every part,
//     weight(part k) < ceil(T/P) + w_max
// where w_max is the heaviest single unit — the unavoidable slack, since a
// unit (one row, one slice) can never be split below format granularity.
// Proof sketch: prefix[b_k] >= floor(kT/P) and prefix[b_{k+1}] <
// floor((k+1)T/P) + w_max (the unit before the boundary was still short of
// the target). Subtracting gives the bound; flock_test checks it on the
// pathological distributions (all nnz in one unit, all-empty-but-last).

#include <cstdint>
#include <vector>

#include "base/types.hpp"

namespace kestrel::mat {

/// A planned split of [0, nunits) into contiguous, possibly empty ranges.
/// bounds has nparts()+1 entries, bounds.front() == 0, bounds.back() ==
/// nunits, monotone non-decreasing.
struct FlockPartition {
  std::vector<Index> bounds;

  int nparts() const {
    return bounds.empty() ? 0 : static_cast<int>(bounds.size()) - 1;
  }
  Index begin(int p) const { return bounds[static_cast<std::size_t>(p)]; }
  Index end(int p) const { return bounds[static_cast<std::size_t>(p) + 1]; }
  bool serial() const { return nparts() <= 1; }
};

/// Plans an nnz-balanced split of [0, nunits) into `nparts` ranges given the
/// weight prefix sum (`prefix[u]` = total weight of units before u, so
/// prefix has nunits+1 entries and prefix[0] == 0). Zero total weight falls
/// back to an even unit split so empty matrices still cover every unit.
FlockPartition nnz_balance(const std::int64_t* prefix, Index nunits,
                           int nparts);

/// Same, for the Index-typed prefix arrays the formats store (rowptr,
/// sliceptr, panel_valptr).
FlockPartition nnz_balance(const Index* prefix, Index nunits, int nparts);

/// Convenience: builds the prefix from per-unit weights, then balances.
FlockPartition nnz_balance_weights(const std::vector<std::int64_t>& weights,
                                   int nparts);

}  // namespace kestrel::mat
