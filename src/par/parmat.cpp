#include "par/parmat.hpp"

#include <algorithm>
#include <cmath>

#include "aegis/abft.hpp"
#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "mat/convert.hpp"
#include "par/pool.hpp"
#include "prof/profiler.hpp"
#include "simd/dispatch.hpp"

namespace kestrel::par {

namespace {
// Kestrel Flock: elementwise pool splitting for the gather-pack and ABFT
// reduction passes. Chunks are a fixed multiple of kZmmDoubles derived only
// from (n, nthreads), so part boundaries — and therefore each part's
// partial result — are deterministic for a given thread count no matter
// which worker runs which part. Short arrays stay serial: the barrier
// costs more than the scan.
constexpr Index kPoolElemCutoff = 4096;

Index pool_chunk(Index n, int nthreads) {
  const Index per = (n + nthreads - 1) / nthreads;
  return (per + kZmmDoubles - 1) / kZmmDoubles * kZmmDoubles;
}

void pooled_gather_pack(simd::GatherPackFn fn, const Scalar* x,
                        const Index* idx, Index n, Scalar* out) {
  ThreadPool& pool = ThreadPool::rank_pool();
  if (pool.nthreads() == 1 || n < kPoolElemCutoff) {
    fn(x, idx, n, out);
    return;
  }
  const Index chunk = pool_chunk(n, pool.nthreads());
  const int nparts = static_cast<int>((n + chunk - 1) / chunk);
  pool.run(nparts, [&](int p, int) {
    const Index i0 = static_cast<Index>(p) * chunk;
    const Index i1 = std::min(n, i0 + chunk);
    if (i0 < i1) fn(x, idx + i0, i1 - i0, out + i0);
  });
}

// chunk >= ceil(n / nthreads) makes nparts <= nthreads <= kMaxPoolThreads,
// so the per-part partials fit in stack scratch; the final sums run in
// part-index order on the caller.
void pooled_dot_abs(const Scalar* c, const Scalar* x, Index n, Scalar* s,
                    Scalar* abs_s) {
  ThreadPool& pool = ThreadPool::rank_pool();
  if (pool.nthreads() == 1 || n < kPoolElemCutoff) {
    aegis::dot_abs(c, x, n, s, abs_s);
    return;
  }
  const Index chunk = pool_chunk(n, pool.nthreads());
  const int nparts = static_cast<int>((n + chunk - 1) / chunk);
  Scalar ps[kMaxPoolThreads] = {};
  Scalar pa[kMaxPoolThreads] = {};
  pool.run(nparts, [&](int p, int) {
    const Index i0 = static_cast<Index>(p) * chunk;
    const Index i1 = std::min(n, i0 + chunk);
    if (i0 < i1) aegis::dot_abs(c + i0, x + i0, i1 - i0, &ps[p], &pa[p]);
  });
  Scalar sum = 0.0, abs_sum = 0.0;
  for (int p = 0; p < nparts; ++p) {
    sum += ps[p];
    abs_sum += pa[p];
  }
  *s = sum;
  *abs_s = abs_sum;
}

void pooled_sum_abs(const Scalar* y, Index n, Scalar* s, Scalar* abs_s) {
  ThreadPool& pool = ThreadPool::rank_pool();
  if (pool.nthreads() == 1 || n < kPoolElemCutoff) {
    aegis::sum_abs(y, n, s, abs_s);
    return;
  }
  const Index chunk = pool_chunk(n, pool.nthreads());
  const int nparts = static_cast<int>((n + chunk - 1) / chunk);
  Scalar ps[kMaxPoolThreads] = {};
  Scalar pa[kMaxPoolThreads] = {};
  pool.run(nparts, [&](int p, int) {
    const Index i0 = static_cast<Index>(p) * chunk;
    const Index i1 = std::min(n, i0 + chunk);
    if (i0 < i1) aegis::sum_abs(y + i0, i1 - i0, &ps[p], &pa[p]);
  });
  Scalar sum = 0.0, abs_sum = 0.0;
  for (int p = 0; p < nparts; ++p) {
    sum += ps[p];
    abs_sum += pa[p];
  }
  *s = sum;
  *abs_s = abs_sum;
}
}

DiagFormat parse_diag_format(const std::string& name) {
  const std::string_view format = mat::canonical_format(name);
  for (const DiagFormat f : {DiagFormat::kCsr, DiagFormat::kCsrPerm,
                             DiagFormat::kSell, DiagFormat::kBcsr,
                             DiagFormat::kTalon}) {
    if (format == diag_format_name(f)) return f;
  }
  KESTREL_FAIL("no diagonal-block format for '" + name + "'");
}

const char* diag_format_name(DiagFormat fmt) {
  switch (fmt) {
    case DiagFormat::kCsr:
      return "csr";
    case DiagFormat::kCsrPerm:
      return "csrperm";
    case DiagFormat::kSell:
      return "sell";
    case DiagFormat::kBcsr:
      return "bcsr";
    case DiagFormat::kTalon:
      return "talon";
  }
  return "?";
}

ParMatrix::ParMatrix(const mat::Csr& local_rows, LayoutPtr layout,
                     Comm& comm, ParMatrixOptions opts)
    : layout_(std::move(layout)), rank_(comm.rank()) {
  KESTREL_CHECK(layout_->nranks() == comm.size(),
                "layout rank count != communicator size");
  KESTREL_CHECK(opts.persistent_ghosts,
                "ParMatrixOptions::persistent_ghosts must be true: the "
                "mailbox ghost transport is gone");
  const Index b = layout_->begin(rank_);
  const Index e = layout_->end(rank_);
  const Index m = e - b;
  KESTREL_CHECK(local_rows.rows() == m, "local row block size mismatch");
  KESTREL_CHECK(local_rows.cols() == layout_->global_size(),
                "local rows must use global column indices");

  // ---- Split rows into diagonal and off-diagonal parts ----------------
  std::vector<Index> diag_rowptr{0}, diag_colidx;
  std::vector<Scalar> diag_val;
  std::vector<Index> off_rowptr{0}, off_gcolidx;
  std::vector<Scalar> off_val;
  offdiag_rows_.clear();
  for (Index i = 0; i < m; ++i) {
    const auto cols = local_rows.row_cols(i);
    const auto vals = local_rows.row_vals(i);
    bool row_has_off = false;
    for (std::size_t k = 0; k < cols.size(); ++k) {
      const Index g = cols[k];
      if (g >= b && g < e) {
        diag_colidx.push_back(g - b);
        diag_val.push_back(vals[k]);
      } else {
        if (!row_has_off) {
          row_has_off = true;
          offdiag_rows_.push_back(i);
        }
        off_gcolidx.push_back(g);
        off_val.push_back(vals[k]);
      }
    }
    diag_rowptr.push_back(static_cast<Index>(diag_colidx.size()));
    if (row_has_off) {
      off_rowptr.push_back(static_cast<Index>(off_gcolidx.size()));
    }
  }

  mat::Csr diag_csr(m, m, std::move(diag_rowptr), std::move(diag_colidx),
                    std::move(diag_val));

  // ---- Ghost column map (packed, sorted by global index) --------------
  std::vector<Index> ghosts = off_gcolidx;
  std::sort(ghosts.begin(), ghosts.end());
  ghosts.erase(std::unique(ghosts.begin(), ghosts.end()), ghosts.end());
  nghost_ = static_cast<Index>(ghosts.size());
  std::vector<Index> off_colidx(off_gcolidx.size());
  for (std::size_t k = 0; k < off_gcolidx.size(); ++k) {
    const auto it =
        std::lower_bound(ghosts.begin(), ghosts.end(), off_gcolidx[k]);
    off_colidx[k] = static_cast<Index>(it - ghosts.begin());
  }
  offdiag_ =
      mat::Csr(static_cast<Index>(offdiag_rows_.size()), nghost_,
               std::move(off_rowptr), std::move(off_colidx),
               std::move(off_val));
  offdiag_.set_tier(opts.tier);
  ghost_.resize(nghost_);

  // ---- Compute format for the diagonal block --------------------------
  diag_ = mat::convert(std::move(diag_csr),
                       diag_format_name(opts.diag_format), opts.block_size);
  diag_->set_tier(opts.tier);

  // Kestrel Flock: construction planned every block's partition from
  // par::configured_threads(); an explicit thread count re-plans them all.
  if (opts.threads > 0) {
    diag_->repartition(opts.threads);
    offdiag_.repartition(opts.threads);
  }

  // ---- Exchange communication plans (collective) ----------------------
  // needed[r] = sorted global indices owned by rank r that I gather from.
  std::vector<std::vector<Index>> needed(
      static_cast<std::size_t>(comm.size()));
  {
    std::size_t g = 0;
    for (int r = 0; r < comm.size(); ++r) {
      auto& list = needed[static_cast<std::size_t>(r)];
      while (g < ghosts.size() && ghosts[g] < layout_->end(r)) {
        KESTREL_CHECK(r != rank_, "ghost column owned by this rank");
        list.push_back(ghosts[g]);
        ++g;
      }
    }
    KESTREL_CHECK(g == ghosts.size(), "unassigned ghost columns");
  }

  recvs_.clear();
  Index offset = 0;
  for (int r = 0; r < comm.size(); ++r) {
    const auto& list = needed[static_cast<std::size_t>(r)];
    if (!list.empty()) {
      recvs_.push_back(
          {r, offset, static_cast<Index>(list.size())});
      offset += static_cast<Index>(list.size());
    }
  }

  // One allgatherv tells every rank which entries each rank needs from it,
  // as PETSc's set-up collective does. A rank's contribution is a header of
  // P counts, then its list for each destination in rank order; the lists
  // travel as Index, never round-tripped through Scalar.
  const auto nranks = static_cast<std::size_t>(comm.size());
  std::vector<Index> mine(nranks);
  for (std::size_t r = 0; r < nranks; ++r) {
    mine[r] = static_cast<Index>(needed[r].size());
  }
  for (const auto& list : needed) {
    mine.insert(mine.end(), list.begin(), list.end());
  }
  const std::vector<Index> all = comm.allgatherv(mine);
  sends_.clear();
  const Index* counts = all.data();  // rank r's header, r = 0, 1, ...
  for (int r = 0; r < comm.size(); ++r) {
    const Index* list = counts + nranks;
    for (int d = 0; d < rank_; ++d) list += counts[d];
    const Index count = counts[rank_];
    const Index* next = counts + nranks;
    for (std::size_t d = 0; d < nranks; ++d) next += counts[d];
    counts = next;
    if (r == rank_ || count == 0) continue;
    SendPlan plan;
    plan.peer = r;
    plan.local_indices.reserve(static_cast<std::size_t>(count));
    for (const Index* g = list; g != list + count; ++g) {
      KESTREL_CHECK(*g >= b && *g < e, "peer requested a non-owned entry");
      plan.local_indices.push_back(*g - b);
    }
    sends_.push_back(std::move(plan));
  }

  // ---- Ghost exchange setup -------------------------------------------
  gather_fn_ =
      simd::lookup_as<simd::GatherPackFn>(simd::Op::kGatherPack, opts.tier);
  // One contiguous pack buffer, sized once: plan i owns the slice at
  // send_offsets_[i], so nothing reallocates mid-iteration.
  send_offsets_.clear();
  std::size_t pack_total = 0;
  for (const SendPlan& plan : sends_) {
    send_offsets_.push_back(pack_total);
    pack_total += plan.local_indices.size();
  }
  packbuf_.assign(pack_total, Scalar{0});
  // The persistent channels themselves open lazily at the first spmv (see
  // ensure_exchange): registration needs this object's final ghost_
  // address, and the constructor's matrix may still be moved/copied.

  // ---- Kestrel Aegis ABFT setup ---------------------------------------
  // Column checksums at assembly, per block: the distributed invariant is
  // c_diag·x_local + c_off·ghost == Σ y_local on every rank (no extra
  // communication — each rank verifies its own row block independently).
  abft_ = opts.abft;
  abft_tol_ = opts.abft_tol;
  if (abft_) {
    diag_->abft_col_checksum(abft_cdiag_);
    // The compressed CSR's column space is already the packed ghost space.
    offdiag_.abft_col_checksum(abft_coff_);
  }
}

PersistentExchange& ParMatrix::ensure_exchange(Comm& comm) const {
  if (exchange_.ptr != nullptr) return *exchange_.ptr;
  std::vector<GhostSendSpec> send_specs;
  send_specs.reserve(sends_.size());
  for (const SendPlan& plan : sends_) {
    send_specs.push_back(
        {plan.peer, static_cast<Index>(plan.local_indices.size())});
  }
  std::vector<GhostRecvSpec> recv_specs;
  recv_specs.reserve(recvs_.size());
  for (const RecvPlan& plan : recvs_) {
    recv_specs.push_back(
        {plan.peer, ghost_.data() + plan.ghost_offset, plan.count});
  }
  exchange_.ptr = comm.open_exchange(send_specs, recv_specs);
  return *exchange_.ptr;
}

ParMatrix ParMatrix::from_global(const mat::Csr& global, LayoutPtr layout,
                                 Comm& comm, ParMatrixOptions opts) {
  KESTREL_CHECK(global.rows() == global.cols(),
                "from_global requires a square matrix");
  KESTREL_CHECK(global.rows() == layout->global_size(),
                "layout size mismatch");
  const Index b = layout->begin(comm.rank());
  const Index e = layout->end(comm.rank());
  std::vector<Index> rows(static_cast<std::size_t>(e - b));
  for (Index i = b; i < e; ++i) rows[static_cast<std::size_t>(i - b)] = i;
  std::vector<Index> cols(static_cast<std::size_t>(global.cols()));
  for (Index j = 0; j < global.cols(); ++j) {
    cols[static_cast<std::size_t>(j)] = j;
  }
  return ParMatrix(global.extract(rows, cols), std::move(layout), comm,
                   std::move(opts));
}

void ParMatrix::spmv(const ParVector& x, ParVector& y, Comm& comm) const {
  KESTREL_CHECK(x.local_size() == local_rows(), "spmv: x layout mismatch");
  spmv_local(x.local().data(), y.local(), comm);
}

void ParMatrix::spmv_local(const Scalar* x_local, Vector& y_local,
                           Comm& comm) const {
  // Profiling: one outer MatMult event (inclusive, PETSc-style) plus one
  // nested event per phase, so -log_trace shows the ghost exchange
  // overlapping the local multiply on each rank's track.
  static const int ev_mult = prof::registered_event("MatMult");
  static const int ev_pack = prof::registered_event("MatMultPack");
  static const int ev_send = prof::registered_event("MatMultSend");
  static const int ev_local = prof::registered_event("MatMultLocal");
  static const int ev_wait = prof::registered_event("MatMultWait");
  static const int ev_off = prof::registered_event("MatMultOffdiag");
  prof::ScopedEvent mult(
      ev_mult,
      2u * static_cast<std::uint64_t>(diag_->nnz() + offdiag_.nnz()),
      diag_->spmv_traffic_bytes() + offdiag_.spmv_traffic_bytes());

  const bool exchanging = !sends_.empty() || !recvs_.empty();
  PersistentExchange* exchange =
      exchanging ? &ensure_exchange(comm) : nullptr;
  if (exchange != nullptr) {
    // (0) re-arm the persistent receive channels before anything else:
    // arming first (and only then sending) is what makes the rendezvous
    // deadlock-free — a peer parked in send() is waiting on this line.
    exchange->arm();
  }

  // (1) send the locally owned entries that other ranks need. Packing runs
  // the kGatherPack kernel into this plan's pre-sized slice of packbuf_.
  for (std::size_t si = 0; si < sends_.size(); ++si) {
    const SendPlan& plan = sends_[si];
    const Index count = static_cast<Index>(plan.local_indices.size());
    Scalar* packed = packbuf_.data() + send_offsets_[si];
    {
      prof::ScopedEvent pack(ev_pack);
      pooled_gather_pack(gather_fn_, x_local, plan.local_indices.data(),
                         count, packed);
    }
    prof::ScopedEvent send(ev_send);
    exchange->send(static_cast<int>(si), packed, count);
  }

  // Local compute, factored so the ABFT path can recompute it (steps 2+4)
  // from the already-exchanged ghost values on a checksum mismatch.
  const auto diag_multiply = [&] {
    y_local.resize(local_rows());
    diag_->spmv(x_local, y_local.data());
  };
  const auto offdiag_multiply = [&] {
    if (offdiag_rows_.empty()) return;
    auto fn = simd::lookup_as<simd::CsrSpmvAddRowsFn>(
        simd::Op::kCsrSpmvAddRows, offdiag_.tier());
    const mat::FlockPartition& part = offdiag_.partition();
    if (part.nparts() <= 1) {
      fn(offdiag_.view(), offdiag_rows_.data(), ghost_.data(),
         y_local.data());
      return;
    }
    // Flock over the compressed rows: rowptr values are absolute, the
    // row-id list shifts with the range, and y stays unshifted because
    // the kernel scatters through rows[] — compressed rows are distinct
    // local rows, so parts never touch the same y entry.
    const mat::CsrView v = offdiag_.view();
    ThreadPool::rank_pool().run(part.nparts(), [&](int p, int) {
      const Index r0 = part.begin(p);
      const Index r1 = part.end(p);
      if (r0 == r1) return;
      const mat::CsrView sub{r1 - r0, v.n, v.rowptr + r0, v.colidx, v.val};
      fn(sub, offdiag_rows_.data() + r0, ghost_.data(), y_local.data());
    });
  };

  // (2) diagonal block with the local x — overlaps with message delivery.
  {
    prof::ScopedEvent local(ev_local);
    diag_multiply();
  }

  // (3) wait for ghost values, completing receives in arrival order
  // (wait_any); each completion means the peer's values are already in
  // place in ghost_ — nothing to unpack.
  {
    prof::ScopedEvent wait(ev_wait);
    const int nrecv = exchange != nullptr ? exchange->nrecv() : 0;
    for (int c = 0; c < nrecv; ++c) (void)exchange->wait_any();
  }

  // (4) off-diagonal block accumulates into y.
  {
    prof::ScopedEvent off(ev_off);
    offdiag_multiply();
  }

  // (5) ABFT verification (Kestrel Aegis): each rank checks its local row
  // block against the assembly-time column checksums; a transient fault
  // heals with one local recompute (the ghost values are already in
  // place — no re-communication), a persistent one throws AbftError.
  if (abft_) {
    aegis::AegisStats& ast = aegis::stats();
    const auto verify_local = [&](Scalar* drift) {
      // Combined check c_diag·x + c_off·ghost − Σy = 0, so rounding in
      // either term is pooled into one drift and one scale. The reductions
      // are the tier-dispatched Aegis passes (aegis/abft.hpp).
      Scalar cxd = 0.0, cxd_abs = 0.0, cxo = 0.0, cxo_abs = 0.0;
      pooled_dot_abs(abft_cdiag_.data(), x_local, abft_cdiag_.size(), &cxd,
                     &cxd_abs);
      pooled_dot_abs(abft_coff_.data(), ghost_.data(), abft_coff_.size(),
                     &cxo, &cxo_abs);
      Scalar ysum = 0.0, ysum_abs = 0.0;
      pooled_sum_abs(y_local.data(), y_local.size(), &ysum, &ysum_abs);
      *drift = std::abs((cxd + cxo) - ysum);
      if (std::isnan(*drift)) return false;
      return *drift <= abft_tol_ * (cxd_abs + cxo_abs + ysum_abs + 1.0);
    };
    Scalar drift = 0.0;
    bool ok;
    {
      KESTREL_PROF_SPMV(
          "AbftVerify",
          2 * (local_rows() + abft_cdiag_.size() + abft_coff_.size()),
          sizeof(Scalar) *
              static_cast<std::size_t>(2 * (abft_cdiag_.size() +
                                            abft_coff_.size()) +
                                       local_rows()));
      ast.abft_verifications++;
      ok = verify_local(&drift);
    }
    if (!ok) {
      ast.abft_failures++;
      ast.abft_retries++;
      diag_multiply();
      offdiag_multiply();
      ast.abft_verifications++;
      if (verify_local(&drift)) {
        ast.recoveries++;
      } else {
        throw AbftError(
            "parmat(" + diag_->format_name() + ")", drift,
            "distributed checksum invariant still violated after local "
            "recompute on rank " + std::to_string(rank_),
            __FILE__, __LINE__);
      }
    }
  }
}

}  // namespace kestrel::par
