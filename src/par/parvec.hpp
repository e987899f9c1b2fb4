#pragma once
// Row-distributed vector: each rank owns a contiguous block of entries,
// mirroring PETSc's default vector layout (paper section 2.1).

#include <memory>
#include <vector>

#include "base/types.hpp"
#include "par/comm.hpp"
#include "vec/vector.hpp"

namespace kestrel::par {

/// Describes how `global_size` entries are split into contiguous per-rank
/// blocks. Shared between vectors and matrices on the same communicator.
class Layout {
 public:
  /// PETSc-style near-even split: the first (global % size) ranks get one
  /// extra entry.
  static Layout even(Index global_size, int nranks);
  /// Near-even split where every rank's block is a multiple of `bs` —
  /// required when the distributed matrix uses BAIJ blocks (a 2x2 block
  /// must never straddle a rank boundary).
  static Layout even_blocked(Index global_size, int nranks, Index bs);
  /// Explicit block sizes per rank.
  static Layout from_sizes(const std::vector<Index>& sizes);

  Index global_size() const { return offsets_.back(); }
  int nranks() const { return static_cast<int>(offsets_.size()) - 1; }
  Index begin(int rank) const {
    return offsets_[static_cast<std::size_t>(rank)];
  }
  Index end(int rank) const {
    return offsets_[static_cast<std::size_t>(rank) + 1];
  }
  Index local_size(int rank) const { return end(rank) - begin(rank); }
  /// Owner of global index g (binary search).
  int owner(Index g) const;

 private:
  explicit Layout(std::vector<Index> offsets)
      : offsets_(std::move(offsets)) {}
  std::vector<Index> offsets_;
};

using LayoutPtr = std::shared_ptr<const Layout>;

/// The local block of a distributed vector on one rank.
class ParVector {
 public:
  ParVector() = default;
  ParVector(LayoutPtr layout, int rank)
      : layout_(std::move(layout)),
        rank_(rank),
        local_(layout_->local_size(rank)) {}

  const Layout& layout() const { return *layout_; }
  int rank() const { return rank_; }
  Index global_size() const { return layout_->global_size(); }
  Index local_size() const { return local_.size(); }
  Index own_begin() const { return layout_->begin(rank_); }

  Vector& local() { return local_; }
  const Vector& local() const { return local_; }

  /// Fills the local block from the owned slice of a replicated global
  /// vector (test/bootstrap helper).
  void set_from_global(const Vector& global);

  /// Global reductions (collective).
  Scalar dot(const ParVector& other, Comm& comm) const;
  Scalar norm2(Comm& comm) const;

  /// Gathers the full vector on every rank (collective; test helper).
  Vector gather_all(Comm& comm) const;

 private:
  LayoutPtr layout_;
  int rank_ = 0;
  Vector local_;
};

}  // namespace kestrel::par
