#pragma once
// Row-distributed sparse matrix with PETSc's storage split (paper section
// 2.1): each rank keeps the square "diagonal block" (columns it owns) in
// the compute format of choice, and everything else in a compressed
// off-diagonal block whose rows are only the locally nonzero ones and whose
// column space is the packed ghost index space.
//
// SpMV follows the 4-step overlap of section 2.2:
//   1. post nonblocking sends of the locally owned x entries other ranks
//      need (and logically the receives);
//   2. multiply the diagonal block with the local x;
//   3. wait for ghost values to arrive;
//   4. multiply the compressed off-diagonal block and accumulate.
//
// Kestrel Slipstream: the ghost exchange runs on persistent fabric
// channels (Comm::open_exchange) opened lazily at the first spmv — sends
// gather-pack into a pre-sized buffer with the simd::Op::kGatherPack
// kernel and deliver with a single copy straight into this rank's ghost_
// slice, and step 3 completes receives in arrival order (wait_any) instead
// of plan order. Steady-state spmv performs zero heap allocations in the
// fabric path. Set-up exchanges the send plans through one allgatherv on
// the fabric's collective slot.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mat/csr.hpp"
#include "par/comm.hpp"
#include "par/parvec.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::par {

/// The diagonal block's format: an entry of mat::convert's table, built
/// with its default options. parse_diag_format accepts the table's aliases.
enum class DiagFormat { kCsr, kCsrPerm, kSell, kBcsr, kTalon };

DiagFormat parse_diag_format(const std::string& name);
const char* diag_format_name(DiagFormat fmt);

/// Storage for the off-diagonal block: the paper's "compressed CSR" (only
/// nonzero rows stored, section 2.2) is the only one.
enum class OffdiagFormat { kCompressedCsr };

struct ParMatrixOptions {
  DiagFormat diag_format = DiagFormat::kCsr;
  /// Has one value and is never read. Kept only while
  /// perfbench/src/wl_dist_cg.cpp assigns it.
  OffdiagFormat offdiag_format = OffdiagFormat::kCompressedCsr;
  Index block_size = 2;  ///< used when diag_format == kBcsr
  simd::IsaTier tier = simd::default_tier();
  /// Must be true: the persistent channels are the only ghost transport,
  /// and the constructor rejects false. Kept only while
  /// perfbench/src/wl_dist_cg.cpp assigns it.
  bool persistent_ghosts = true;
  /// Kestrel Flock: in-rank thread count for the diag/offdiag partitions.
  /// 0 (default) keeps the partitions planned at construction from
  /// par::configured_threads() (-threads / KESTREL_THREADS); a positive
  /// value re-plans both blocks for exactly that many pool threads.
  int threads = 0;
  /// Kestrel Aegis ABFT: precompute per-block column checksums at assembly
  /// and verify c_diag·x + c_off·ghost == Σy after every spmv, recomputing
  /// the local multiply once on a mismatch before throwing AbftError.
  bool abft = false;
  Scalar abft_tol = 1e-8;
};

class ParMatrix {
 public:
  /// Collective. `local_rows` is this rank's contiguous row block of the
  /// global matrix, with GLOBAL column indices; `layout` is the shared
  /// row/column layout (square matrices only).
  ParMatrix(const mat::Csr& local_rows, LayoutPtr layout, Comm& comm,
            ParMatrixOptions opts = {});

  /// Collective convenience: every rank passes the same global matrix and
  /// extracts its own block (test helper).
  static ParMatrix from_global(const mat::Csr& global, LayoutPtr layout,
                               Comm& comm, ParMatrixOptions opts = {});

  /// Collective: y = A * x with communication/computation overlap.
  void spmv(const ParVector& x, ParVector& y, Comm& comm) const;

  /// Collective raw-pointer form over local blocks (used by the solver
  /// contexts): x_local has local_rows() entries.
  void spmv_local(const Scalar* x_local, Vector& y_local, Comm& comm) const;

  /// d = diag(A) (local part, no communication needed).
  void get_diagonal(Vector& d) const { diag_->get_diagonal(d); }

  Index local_rows() const { return layout_->local_size(rank_); }
  Index global_rows() const { return layout_->global_size(); }
  int rank() const { return rank_; }
  const Layout& layout() const { return *layout_; }
  LayoutPtr layout_ptr() const { return layout_; }

  const mat::Matrix& diag_block() const { return *diag_; }
  const mat::Csr& offdiag_block() const { return offdiag_; }
  Index num_ghosts() const { return nghost_; }
  std::int64_t local_nnz() const {
    return diag_->nnz() + offdiag_.nnz();
  }

 private:
  LayoutPtr layout_;
  int rank_ = 0;

  std::shared_ptr<mat::Matrix> diag_;  ///< square block, local columns
  mat::Csr offdiag_;   ///< compressed rows, packed ghost column space
  std::vector<Index> offdiag_rows_;  ///< local row id per compressed row
  Index nghost_ = 0;

  // communication plan
  struct SendPlan {
    int peer;
    std::vector<Index> local_indices;  ///< which of my x entries to pack
  };
  struct RecvPlan {
    int peer;
    Index ghost_offset;  ///< where the peer's values land in ghost buffer
    Index count;
  };
  std::vector<SendPlan> sends_;
  std::vector<RecvPlan> recvs_;

  simd::GatherPackFn gather_fn_ = nullptr;  ///< resolved pack kernel

  // Kestrel Aegis ABFT state (empty unless ParMatrixOptions::abft).
  bool abft_ = false;
  Scalar abft_tol_ = 1e-8;
  Vector abft_cdiag_;  ///< diag blockᵀ·1 over the local column space
  Vector abft_coff_;   ///< offdiag blockᵀ·1 over the packed ghost space

  mutable Vector ghost_;                 ///< packed ghost values
  /// One pre-sized pack buffer for all peers: plan i packs into
  /// [send_offsets_[i], send_offsets_[i] + plan.count) — no reallocation
  /// inside the send loop, ever.
  mutable std::vector<Scalar> packbuf_;
  std::vector<std::size_t> send_offsets_;

  /// The persistent channel set: its receive slices point into ghost_, so
  /// it moves with ghost_ but is never copied. A copy starts without one
  /// and opens its own at its first spmv, so each matrix's channels close
  /// and drain when that matrix dies, before its ghost_ is freed.
  struct OwnedExchange {
    std::shared_ptr<PersistentExchange> ptr;
    OwnedExchange() = default;
    OwnedExchange(OwnedExchange&&) = default;
    OwnedExchange& operator=(OwnedExchange&&) = default;
    OwnedExchange(const OwnedExchange& /*other*/) {}
    OwnedExchange& operator=(const OwnedExchange& /*other*/) {
      ptr.reset();
      return *this;
    }
  };
  /// Opened lazily at the first spmv (collective because spmv is
  /// collective).
  mutable OwnedExchange exchange_;

  PersistentExchange& ensure_exchange(Comm& comm) const;
};

}  // namespace kestrel::par
