#include "par/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <sstream>
#include <thread>

#include "aegis/fault.hpp"
#include "base/error.hpp"
#include "par/checker.hpp"
#include "prof/profiler.hpp"

namespace kestrel::par {

namespace {
// Internal tags; user tags must be non-negative. allgatherv calls from the
// same source reuse the gather tags, and per-(source, tag) FIFO ordering
// keeps successive gathers correctly matched. kTagSlot names the collective
// slot's messages to the fault plan only; nothing is queued under it.
constexpr int kTagSlot = -1;
constexpr int kTagGatherUp = -3;
constexpr int kTagGatherDown = -4;

Scalar reduce2(Scalar a, Scalar b, Comm::ReduceOp op) {
  switch (op) {
    case Comm::ReduceOp::kSum:
      return a + b;
    case Comm::ReduceOp::kMax:
      return std::max(a, b);
    case Comm::ReduceOp::kMin:
      return std::min(a, b);
  }
  return a;
}

/// Describes a blocked matching-receive for hang reports, translating the
/// internal gather tags back into the user-facing operation name. Always
/// names the offending channel's (src, dst, tag) so a fault-injection test
/// (or a user) can see exactly which link stalled.
std::string take_context(int self, int source, int tag) {
  std::ostringstream os;
  os << (tag == kTagGatherUp || tag == kTagGatherDown ? "allgatherv"
                                                      : "recv");
  os << " (src=" << source << ", dst=" << self << ", tag=" << tag << ")";
  return os.str();
}

/// Bounded cooperative spin before parking on a persistent channel or in a
/// collective. The fabric is oversubscribed by design (ranks are threads,
/// usually more of them than cores), so sched_yield hands the core straight
/// to a runnable peer — which typically arms, delivers or arrives within a
/// few yields — whereas parking costs two futex syscalls here plus a third
/// in the peer's notify. A pause-instruction spin would be faster when each
/// rank has its own core and far slower when two share one (the waiter
/// burns the slice its peer needs). Bounded so a genuinely slow peer still
/// puts this rank properly to sleep.
template <class Pred>
bool spin_before_park(const Pred& ready) {
  constexpr int kSpinYields = 32;
  for (int i = 0; i < kSpinYields; ++i) {
    if (ready()) return true;
    std::this_thread::yield();
  }
  return ready();
}

/// cv.wait(lock, pred), bounded by `timeout_s` when it is positive. Returns
/// false when the bound expired with pred() still false.
template <class Pred>
bool wait_bounded(std::condition_variable& cv,
                  std::unique_lock<std::mutex>& lock, double timeout_s,
                  const Pred& pred) {
  if (timeout_s <= 0) {
    cv.wait(lock, pred);
    return true;
  }
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  return cv.wait_until(lock, deadline, pred);
}

/// What a rank throws when it unwinds because of another rank: the fabric
/// aborted, or a receiver closed its persistent channel mid-round. It names
/// that other rank, so Fabric::run lets it claim the root cause only for
/// the rank it names, never for the thrower.
class FabricAborted final : public RankFailure {
 public:
  using RankFailure::RankFailure;
};

bool env_flag(const char* name, bool fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

/// One persistent SPSC channel (Kestrel Slipstream). The receiver owns
/// `dest`/`recv_count` (registered once at open); the armed/delivered
/// counter pair is the entire steady-state protocol:
///
///   receiver arm round k:   armed.store(k)        (dest writable)
///   sender   send round k:  wait armed >= k; memcpy(dest, packed, ...);
///                           delivered.store(k)    (dest readable)
///   receiver wait_any:      sees delivered >= k   (data already in place)
///
/// Both counters are seq_cst because they each participate in a Dekker-style
/// flag handshake with a parked-waiter flag (sender_parked here, the
/// receiver's Doorbell::parked in Fabric): the writer bumps its counter and
/// then checks the peer's parked flag, the waiter raises its flag and then
/// re-checks the counter, and seq_cst is what forbids both sides reading
/// stale values at once (a lost wakeup). The mutex/condvar is touched only
/// when a side actually has to park — the fast path is two atomic ops.
struct GhostChannel {
  int src = -1;
  int dst = -1;
  Scalar* dest = nullptr;  ///< receiver-registered in-place slice
  Index recv_count = 0;
  std::atomic<std::uint64_t> armed{0};
  std::atomic<std::uint64_t> delivered{0};
  /// Aegis end-to-end payload checksum of the current round's slice,
  /// written (relaxed) before the delivered bump that publishes it; the
  /// receiver validates it in wait_any when a fault plan is attached.
  std::atomic<std::uint64_t> xsum{0};
  std::atomic<int> sender_parked{0};
  /// Receiver teardown: a closed channel takes no further copies, and
  /// `writers` counts senders inside the copy into dest, so the receiver
  /// can wait them out before its slice is freed.
  std::atomic<bool> closed{false};
  std::atomic<int> writers{0};
  std::mutex mu;  ///< parking only; never taken on the fast path
  std::condition_variable cv;
};

FabricOptions::FabricOptions() {
#if defined(KESTREL_FABRIC_CHECK_DEFAULT)
  constexpr bool kBuildDefault = KESTREL_FABRIC_CHECK_DEFAULT != 0;
#elif defined(NDEBUG)
  constexpr bool kBuildDefault = false;
#else
  constexpr bool kBuildDefault = true;
#endif
  check = env_flag("KESTREL_FABRIC_CHECK", kBuildDefault);
  hang_timeout_s = 30.0;
  if (const char* v = std::getenv("KESTREL_FABRIC_HANG_TIMEOUT")) {
    hang_timeout_s = std::strtod(v, nullptr);
  }
  // Millisecond override (Kestrel Aegis): fault-injection tests need short
  // bounded waits without flaking the second-granularity knob above.
  if (const char* v = std::getenv("KESTREL_FABRIC_TIMEOUT_MS")) {
    hang_timeout_s = std::strtod(v, nullptr) / 1000.0;
  }
  faults = aegis::FaultPlan::from_env();
}

// ---- Comm ------------------------------------------------------------

FabricChecker* Comm::checker() const { return fabric_->checker_.get(); }

void Comm::isend(int dest, int tag, const std::vector<Scalar>& data) {
  isend(dest, tag, data.data(), data.size());
}

void Comm::isend(int dest, int tag, const Scalar* data, std::size_t count) {
  KESTREL_CHECK(dest >= 0 && dest < size_, "isend: bad destination rank");
  KESTREL_CHECK(tag >= 0, "isend: user tags must be non-negative");
  if (FabricChecker* chk = checker()) chk->on_isend(rank_, dest, tag);
  // Send-side accounting only, so a message is never counted twice.
  if (prof::enabled()) {
    prof::current().message(1, count * sizeof(Scalar));
  }
  fabric_->deliver(dest, rank_, tag,
                   std::vector<Scalar>(data, data + count));
}

void Comm::isend_indices(int dest, int tag, const std::vector<Index>& data) {
  KESTREL_CHECK(dest >= 0 && dest < size_,
                "isend_indices: bad destination rank");
  KESTREL_CHECK(tag >= 0, "isend_indices: user tags must be non-negative");
  if (FabricChecker* chk = checker()) chk->on_isend(rank_, dest, tag);
  if (prof::enabled()) {
    prof::current().message(1, data.size() * sizeof(Index));
  }
  fabric_->deliver(dest, rank_, tag, data);
}

Request Comm::irecv(int source, int tag, std::vector<Scalar>* sink) {
  KESTREL_CHECK(source >= 0 && source < size_, "irecv: bad source rank");
  KESTREL_CHECK(tag >= 0, "irecv: user tags must be non-negative");
  KESTREL_CHECK(sink != nullptr, "irecv: null sink");
  Request req{source, tag, sink, false, 0};
  if (FabricChecker* chk = checker()) {
    req.id = chk->on_irecv_post(rank_, source, tag);
  }
  return req;
}

void Comm::wait(Request& req) {
  // The checker (when attached) reports double-wait and foreign requests
  // with rank/source/tag context and a trace; the plain check below is the
  // always-on release-mode backstop.
  if (FabricChecker* chk = checker()) {
    chk->on_wait(rank_, req.id, req.source, req.tag, req.done);
  }
  KESTREL_CHECK(req.sink != nullptr && !req.done,
                "wait: invalid request (already waited on, or "
                "default-constructed)");
  *req.sink = fabric_->take(rank_, req.source, req.tag);
  req.done = true;
}

std::vector<Scalar> Comm::recv(int source, int tag) {
  KESTREL_CHECK(source >= 0 && source < size_, "recv: bad source rank");
  KESTREL_CHECK(tag >= 0, "recv: user tags must be non-negative");
  if (FabricChecker* chk = checker()) chk->on_recv(rank_, source, tag);
  return fabric_->take(rank_, source, tag);
}

std::vector<Index> Comm::recv_indices(int source, int tag) {
  KESTREL_CHECK(source >= 0 && source < size_,
                "recv_indices: bad source rank");
  KESTREL_CHECK(tag >= 0, "recv_indices: user tags must be non-negative");
  if (FabricChecker* chk = checker()) chk->on_recv(rank_, source, tag);
  return fabric_->take_indices(rank_, source, tag);
}

Scalar Comm::allreduce(Scalar value, ReduceOp op) {
  if (FabricChecker* chk = checker()) {
    chk->on_collective(rank_, FabricEventKind::kAllreduce);
  }
  // Counted at the public entry points only: the _impl bodies move their
  // payloads through fabric_->deliver directly, so nothing double-counts.
  if (prof::enabled()) prof::current().reduction();
  return allreduce_impl(value, op);
}

Scalar Comm::allreduce_impl(Scalar value, ReduceOp op) {
  if (size_ == 1) return value;
  Fabric& f = *fabric_;
  // A rank that unwound from an aborted collective must not write its line
  // again: rank 0 may still be reading the old value.
  if (f.aborted_.load(std::memory_order_relaxed)) f.abort_failure();
  Fabric::SlotLine& mine = f.arrivals_[static_cast<std::size_t>(rank_)];
  const std::uint64_t round = mine.round.load(std::memory_order_relaxed) + 1;
  // Every rank's contribution counts as one message to rank 0.
  f.maybe_kill(rank_, "collective");
  f.inject_slot_fault(rank_, 0, kTagSlot, round, "collective slot");
  mine.value = value;
  mine.round.store(round, std::memory_order_seq_cst);
  if (rank_ != 0) {
    f.ring(0);
    f.await_collective(rank_, round, [&] {
      return f.result_.round.load(std::memory_order_seq_cst) >= round;
    });
    return f.result_.value;
  }
  // Rank 0 folds in rank order, so a sum's bits do not depend on the order
  // in which the ranks arrive.
  Scalar acc = value;
  for (int r = 1; r < size_; ++r) {
    const Fabric::SlotLine& line = f.arrivals_[static_cast<std::size_t>(r)];
    f.await_collective(0, round, [&] {
      return line.round.load(std::memory_order_seq_cst) >= round;
    });
    acc = reduce2(acc, line.value, op);
  }
  f.result_.value = acc;
  f.result_.round.store(round, std::memory_order_seq_cst);
  for (int r = 1; r < size_; ++r) f.ring(r);
  return acc;
}

std::int64_t Comm::allreduce(std::int64_t value, ReduceOp op) {
  // int64 magnitudes used here (counts, sizes) are far below 2^53, so the
  // double payload is exact.
  return static_cast<std::int64_t>(
      allreduce(static_cast<Scalar>(value), op));
}

std::vector<Scalar> Comm::allgatherv(const std::vector<Scalar>& local) {
  if (FabricChecker* chk = checker()) {
    chk->on_collective(rank_, FabricEventKind::kAllgatherv);
  }
  if (prof::enabled()) prof::current().reduction();
  return allgatherv_impl(local);
}

std::vector<Scalar> Comm::allgatherv_impl(const std::vector<Scalar>& local) {
  if (size_ == 1) return local;
  if (rank_ == 0) {
    std::vector<Scalar> all = local;
    for (int r = 1; r < size_; ++r) {
      std::vector<Scalar> part = fabric_->take(0, r, kTagGatherUp);
      all.insert(all.end(), part.begin(), part.end());
    }
    for (int r = 1; r < size_; ++r) {
      fabric_->deliver(r, 0, kTagGatherDown, all);
    }
    return all;
  }
  fabric_->deliver(0, rank_, kTagGatherUp, local);
  return fabric_->take(rank_, 0, kTagGatherDown);
}

std::vector<Index> Comm::allgatherv(const std::vector<Index>& local) {
  if (FabricChecker* chk = checker()) {
    chk->on_collective(rank_, FabricEventKind::kAllgatherv);
  }
  if (prof::enabled()) prof::current().reduction();
  return allgatherv_impl(local);
}

std::vector<Index> Comm::allgatherv_impl(const std::vector<Index>& local) {
  // Typed end to end: indices never round-trip through Scalar, so values
  // above 2^53 survive and the payload is half the bytes.
  if (size_ == 1) return local;
  if (rank_ == 0) {
    std::vector<Index> all = local;
    for (int r = 1; r < size_; ++r) {
      std::vector<Index> part = fabric_->take_indices(0, r, kTagGatherUp);
      all.insert(all.end(), part.begin(), part.end());
    }
    for (int r = 1; r < size_; ++r) {
      fabric_->deliver(r, 0, kTagGatherDown, all);
    }
    return all;
  }
  fabric_->deliver(0, rank_, kTagGatherUp, local);
  return fabric_->take_indices(rank_, 0, kTagGatherDown);
}

void Comm::barrier() {
  if (FabricChecker* chk = checker()) {
    chk->on_collective(rank_, FabricEventKind::kBarrier);
  }
  if (prof::enabled()) prof::current().reduction();
  (void)allreduce_impl(Scalar{0}, ReduceOp::kSum);
}

const FabricStats& Comm::stats() const {
  return *fabric_->stats_[static_cast<std::size_t>(rank_)];
}

void Comm::publish_stats_metrics() {
  const FabricStats& st = stats();
  const struct {
    const char* name;
    std::uint64_t value;
  } counters[] = {
      {"fabric/mailbox_msgs", st.mailbox_msgs},
      {"fabric/mailbox_allocs", st.mailbox_allocs},
      {"fabric/payload_copies", st.payload_copies},
      {"fabric/channel_sends", st.channel_sends},
      {"fabric/send_parks", st.send_parks},
      {"fabric/wait_any_calls", st.wait_any_calls},
      {"fabric/wait_any_wakeups", st.wait_any_wakeups},
      {"fabric/collective_parks", st.collective_parks},
  };
  for (const auto& c : counters) {
    // Collective: every rank contributes and every rank learns the total,
    // so rank 0's profiler (the one export_all serializes) has them all.
    const std::int64_t total =
        allreduce(static_cast<std::int64_t>(c.value), ReduceOp::kSum);
    if (prof::enabled()) {
      prof::current().set_metric(c.name, static_cast<double>(total));
    }
  }
  // Aegis counters are process-global atomics (every rank already sees the
  // totals), so no reduction is needed — each rank stamps the same values.
  if (prof::enabled()) {
    aegis::publish_metrics(prof::current());
  }
}

// ---- PersistentExchange ----------------------------------------------

std::shared_ptr<PersistentExchange> Comm::open_exchange(
    const std::vector<GhostSendSpec>& sends,
    const std::vector<GhostRecvSpec>& recvs) {
  std::shared_ptr<PersistentExchange> ex(
      new PersistentExchange(fabric_, rank_));
  ex->sends_.reserve(sends.size());
  for (const GhostSendSpec& s : sends) {
    KESTREL_CHECK(s.peer >= 0 && s.peer < size_ && s.peer != rank_,
                  "open_exchange: bad send peer");
    KESTREL_CHECK(s.count > 0, "open_exchange: empty send channel");
    GhostChannel* ch = fabric_->open_channel_endpoint(rank_, s.peer, true);
    ex->sends_.push_back(
        PersistentExchange::SendSlot{ch, s.peer, s.count, 0});
  }
  ex->recvs_.reserve(recvs.size());
  for (const GhostRecvSpec& r : recvs) {
    KESTREL_CHECK(r.peer >= 0 && r.peer < size_ && r.peer != rank_,
                  "open_exchange: bad recv peer");
    KESTREL_CHECK(r.dest != nullptr && r.count > 0,
                  "open_exchange: recv channel needs a destination slice");
    GhostChannel* ch = fabric_->open_channel_endpoint(r.peer, rank_, false);
    // Published to the sender by the first arm(): the sender reads these
    // only after observing armed >= 1.
    ch->dest = r.dest;
    ch->recv_count = r.count;
    ex->recvs_.push_back(
        PersistentExchange::RecvSlot{ch, r.peer, r.count, false});
  }
  if (FabricChecker* chk = checker()) {
    chk->on_channel_open(rank_, ex->nsend(), ex->nrecv());
  }
  return ex;
}

PersistentExchange::PersistentExchange(Fabric* fabric, int rank)
    : fabric_(fabric), rank_(rank) {}

PersistentExchange::~PersistentExchange() {
  // The receive slices are freed with their owner right after this. A peer
  // that passed its armed check before this rank unwound on a failure may
  // still be copying into one: close every channel, then wait such writers
  // out. Pairs with the writers/closed handshake in send().
  for (const RecvSlot& r : recvs_) {
    r.ch->closed.store(true, std::memory_order_seq_cst);
    while (r.ch->writers.load(std::memory_order_seq_cst) != 0) {
      std::this_thread::yield();
    }
  }
}

void PersistentExchange::arm() {
  KESTREL_CHECK(round_ == 0 || completed_ == nrecv(),
                "arm: previous exchange round not fully drained");
  ++round_;
  completed_ = 0;
  fabric_->maybe_kill(rank_, "persistent exchange arm");
  if (FabricChecker* chk = fabric_->checker_.get()) {
    chk->on_channel_arm(rank_, nrecv());
  }
  for (RecvSlot& r : recvs_) {
    r.done = false;
    GhostChannel& ch = *r.ch;
    ch.armed.store(round_, std::memory_order_seq_cst);
    if (ch.sender_parked.load(std::memory_order_seq_cst) != 0) {
      // Empty critical section: guarantees the parked sender is either
      // fully asleep (notify wakes it) or has not yet evaluated its wait
      // predicate under the lock (it will see the new armed value).
      { std::lock_guard<std::mutex> lock(ch.mu); }
      ch.cv.notify_all();
    }
  }
}

void PersistentExchange::send(int send_idx, const Scalar* packed,
                              Index count) {
  KESTREL_CHECK(send_idx >= 0 && send_idx < nsend(),
                "send: bad channel index");
  SendSlot& s = sends_[static_cast<std::size_t>(send_idx)];
  KESTREL_CHECK(count == s.count,
                "send: payload size does not match the registered plan");
  if (FabricChecker* chk = fabric_->checker_.get()) {
    chk->on_channel_send(rank_, s.peer);
  }
  FabricStats& st = *fabric_->stats_[static_cast<std::size_t>(rank_)];
  GhostChannel& ch = *s.ch;
  const std::uint64_t k = ++s.seq;
  fabric_->maybe_kill(rank_, "persistent channel send");
  fabric_->inject_slot_fault(rank_, s.peer, /*tag=*/send_idx, k,
                             "persistent channel");
  if (ch.armed.load(std::memory_order_seq_cst) < k &&
      !spin_before_park([&] {
        return ch.armed.load(std::memory_order_seq_cst) >= k ||
               fabric_->aborted_.load(std::memory_order_relaxed);
      })) {
    // Slow path: the receiver has not re-armed this round yet (we are one
    // full exchange ahead of it). Park on the channel condvar.
    st.send_parks++;
    ch.sender_parked.fetch_add(1, std::memory_order_seq_cst);
    {
      std::unique_lock<std::mutex> lock(ch.mu);
      const auto ready = [&] {
        return fabric_->aborted_.load(std::memory_order_relaxed) ||
               ch.armed.load(std::memory_order_seq_cst) >= k;
      };
      if (!wait_bounded(ch.cv, lock, fabric_->hang_timeout(), ready)) {
        ch.sender_parked.fetch_sub(1, std::memory_order_seq_cst);
        lock.unlock();
        std::ostringstream os;
        os << "persistent channel send (src=" << rank_ << ", dst=" << s.peer
           << ", tag=" << send_idx << "): peer never re-armed the channel";
        fabric_->hang_failure(rank_, os.str());
      }
    }
    ch.sender_parked.fetch_sub(1, std::memory_order_seq_cst);
    if (fabric_->aborted_.load(std::memory_order_relaxed) &&
        ch.armed.load(std::memory_order_seq_cst) < k) {
      fabric_->abort_failure();
    }
  }
  // armed >= k (seq_cst) also publishes dest/recv_count from the receiver's
  // open_exchange, so this cross-thread validation is race-free.
  KESTREL_CHECK(count == ch.recv_count,
                "send: sender plan count does not match receiver plan count");
  // Enter the copy. Against the receiver's close-then-drain (both seq_cst),
  // either the receiver sees this writer and waits for it, or this sender
  // sees the channel closed and leaves the freed slice alone.
  ch.writers.fetch_add(1, std::memory_order_seq_cst);
  if (ch.closed.load(std::memory_order_seq_cst)) {
    ch.writers.fetch_sub(1, std::memory_order_seq_cst);
    fabric_->abort_failure(ch.dst);
  }
  std::memcpy(ch.dest, packed, static_cast<std::size_t>(count) *
                                   sizeof(Scalar));
  const aegis::FaultPlan* plan = fabric_->opts_.faults.get();
  if (plan != nullptr && plan->corrupts_messages()) {
    // End-to-end integrity: published before (and by) the delivered bump;
    // the receiver re-checksums the in-place slice in wait_any.
    ch.xsum.store(
        aegis::checksum_bytes(ch.dest, static_cast<std::size_t>(count) *
                                           sizeof(Scalar)),
        std::memory_order_relaxed);
  }
  ch.writers.fetch_sub(1, std::memory_order_seq_cst);
  st.channel_sends++;
  st.payload_copies++;
  if (prof::enabled()) {
    prof::current().message(
        1, static_cast<std::size_t>(count) * sizeof(Scalar));
  }
  ch.delivered.store(k, std::memory_order_seq_cst);
  fabric_->ring(ch.dst);
}

int PersistentExchange::wait_any() {
  KESTREL_CHECK(round_ > 0, "wait_any: exchange was never armed");
  KESTREL_CHECK(completed_ < nrecv(),
                "wait_any: every receive of this round already completed");
  FabricStats& st = *fabric_->stats_[static_cast<std::size_t>(rank_)];
  st.wait_any_calls++;
  const auto scan = [&]() -> int {
    for (int i = 0; i < nrecv(); ++i) {
      RecvSlot& r = recvs_[static_cast<std::size_t>(i)];
      if (!r.done &&
          r.ch->delivered.load(std::memory_order_seq_cst) >= round_) {
        return i;
      }
    }
    return -1;
  };
  int idx = scan();
  if (idx < 0) {
    spin_before_park([&] {
      idx = scan();
      return idx >= 0 ||
             fabric_->aborted_.load(std::memory_order_relaxed);
    });
  }
  if (idx < 0 && fabric_->aborted_.load(std::memory_order_relaxed)) {
    fabric_->abort_failure();
  }
  if (idx < 0) {
    // Park on this rank's doorbell; senders ring it after bumping
    // delivered, and the re-scan inside the predicate closes the window.
    st.wait_any_wakeups++;
    fabric_->park(
        rank_,
        [&] {
          if (fabric_->aborted_.load(std::memory_order_relaxed)) return true;
          idx = scan();
          return idx >= 0;
        },
        [&] {
          // Name every channel still pending this round, so the report
          // points at the exact (src, dst, tag) links that stalled.
          std::ostringstream os;
          os << "persistent wait_any: no channel delivered; pending:";
          for (int i = 0; i < nrecv(); ++i) {
            const RecvSlot& pend = recvs_[static_cast<std::size_t>(i)];
            if (!pend.done) {
              os << " (src=" << pend.peer << ", dst=" << rank_
                 << ", tag=" << i << ")";
            }
          }
          return os.str();
        });
    if (idx < 0) fabric_->abort_failure();
  }
  RecvSlot& r = recvs_[static_cast<std::size_t>(idx)];
  const aegis::FaultPlan* plan = fabric_->opts_.faults.get();
  if (plan != nullptr && plan->corrupts_messages()) {
    // End-to-end integrity check of the in-place delivery. The sender's
    // simulated retransmissions always end in a clean copy, so a mismatch
    // here means genuine memory corruption — fail structured, naming the
    // link.
    const std::uint64_t got = aegis::checksum_bytes(
        r.ch->dest, static_cast<std::size_t>(r.count) * sizeof(Scalar));
    if (got != r.ch->xsum.load(std::memory_order_relaxed)) {
      aegis::stats().checksum_failures++;
      throw RankFailure(r.peer,
                        "persistent channel payload checksum mismatch "
                        "(src=" + std::to_string(r.peer) + ", dst=" +
                            std::to_string(rank_) + ", tag=" +
                            std::to_string(idx) + ")",
                        __FILE__, __LINE__);
    }
  }
  r.done = true;
  ++completed_;
  if (FabricChecker* chk = fabric_->checker_.get()) {
    chk->on_channel_complete(rank_, r.peer);
  }
  return idx;
}

void PersistentExchange::wait_all() {
  while (completed_ < nrecv()) (void)wait_any();
}

// ---- Fabric ----------------------------------------------------------

Fabric::Fabric(int nranks, const FabricOptions& opts)
    : nranks_(nranks),
      opts_(opts),
      arrivals_(static_cast<std::size_t>(nranks)) {
  if (opts_.check) checker_ = std::make_unique<FabricChecker>(nranks);
  mailboxes_.reserve(static_cast<std::size_t>(nranks));
  doorbells_.reserve(static_cast<std::size_t>(nranks));
  stats_.reserve(static_cast<std::size_t>(nranks));
  send_seq_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    doorbells_.push_back(std::make_unique<Doorbell>());
    stats_.push_back(std::make_unique<FabricStats>());
    send_seq_.push_back(
        std::make_unique<std::map<std::tuple<int, int, bool>,
                                  std::uint64_t>>());
  }
}

Fabric::~Fabric() = default;

void Fabric::deliver(int dest, int source, int tag,
                     std::vector<Scalar> payload) {
  deliver_impl(&Mailbox::queue, &Mailbox::seq_seen, dest, source, tag,
               std::move(payload), /*is_index=*/false);
}

void Fabric::deliver(int dest, int source, int tag,
                     std::vector<Index> payload) {
  deliver_impl(&Mailbox::iqueue, &Mailbox::iseq_seen, dest, source, tag,
               std::move(payload), /*is_index=*/true);
}

template <class T>
void Fabric::deliver_impl(
    std::map<std::pair<int, int>, std::deque<FabricEnvelope<T>>> Mailbox::*q,
    std::map<std::pair<int, int>, std::uint64_t> Mailbox::*seen, int dest,
    int source, int tag, std::vector<T> payload, bool is_index) {
  // The payload vector was allocated (and filled by copy) by the sending
  // rank just before this call; count it against that rank.
  FabricStats& st = *stats_[static_cast<std::size_t>(source)];
  st.mailbox_msgs++;
  st.mailbox_allocs++;
  st.payload_copies++;
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(dest)];
  const aegis::FaultPlan* plan = opts_.faults.get();
  if (plan != nullptr) maybe_kill(source, "mailbox send");
  // Enqueues one envelope; a reordered envelope jumps the (source, tag)
  // queue (push_front), which the receiver heals by consuming in sequence
  // order rather than arrival order. A copy of a message the receiver has
  // already accepted is dropped here: no later receive need come to
  // discard it.
  const auto enqueue = [&](FabricEnvelope<T> env, bool front) {
    {
      std::lock_guard<std::mutex> lock(box.mu);
      if (env.checked) {
        const auto it = (box.*seen).find({source, tag});
        if (it != (box.*seen).end() && env.seq <= it->second) {
          aegis::stats().duplicates_dropped++;
          return;
        }
      }
      auto& dq = (box.*q)[{source, tag}];
      if (front) {
        dq.push_front(std::move(env));
      } else {
        dq.push_back(std::move(env));
      }
    }
    box.cv.notify_all();
  };
  if (plan == nullptr || !plan->corrupts_messages()) {
    // Fault-free fast path (also kill-only plans): unchecked envelope, no
    // sequence-number or checksum work.
    FabricEnvelope<T> env;
    env.payload = std::move(payload);
    enqueue(std::move(env), /*front=*/false);
    return;
  }
  auto& seq_map = *send_seq_[static_cast<std::size_t>(source)];
  const std::uint64_t seq = ++seq_map[{dest, tag, is_index}];
  const std::uint64_t sum = aegis::checksum_bytes(
      payload.data(), payload.size() * sizeof(T));
  aegis::AegisStats& ast = aegis::stats();
  const aegis::FaultVerdict verdict =
      plan->message_fault(source, dest, tag, seq);
  bool reorder = false;
  switch (verdict.kind) {
    case aegis::FaultKind::kNone:
    case aegis::FaultKind::kKillRank:
      break;
    case aegis::FaultKind::kDelay: {
      ast.faults_injected++;
      ast.delays++;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          plan->delay_ms()));
      break;
    }
    case aegis::FaultKind::kDuplicate: {
      // Stale copy first; it carries the same sequence number, so the
      // receiver consumes one copy and discards the other as a duplicate.
      ast.faults_injected++;
      FabricEnvelope<T> dup;
      dup.seq = seq;
      dup.sum = sum;
      dup.checked = true;
      dup.payload = payload;
      enqueue(std::move(dup), /*front=*/false);
      break;
    }
    case aegis::FaultKind::kReorder: {
      ast.faults_injected++;
      reorder = true;
      break;
    }
    case aegis::FaultKind::kDrop:
    case aegis::FaultKind::kBitFlip: {
      // The link eats (or corrupts) the message for `repeat` consecutive
      // attempts; the sender retransmits with exponential backoff until its
      // retry budget runs out, at which point the link is declared dead and
      // the failure unwinds the whole fabric as a structured error.
      ast.faults_injected++;
      for (int attempt = 0; attempt < verdict.repeat; ++attempt) {
        if (attempt >= plan->max_retries()) {
          throw RankFailure(
              source,
              std::string("unrecoverable ") +
                  aegis::fault_kind_name(verdict.kind) + " fault: link to "
                  "rank " + std::to_string(dest) + " (tag " +
                  std::to_string(tag) + ", seq " + std::to_string(seq) +
                  ") still faulty after " +
                  std::to_string(plan->max_retries()) + " retries",
              __FILE__, __LINE__);
        }
        if (verdict.kind == aegis::FaultKind::kBitFlip) {
          // The corrupted attempt really reaches the receiver: same seq,
          // checksum of the CLEAN payload, one bit flipped in flight. The
          // receiver detects the mismatch and discards it.
          FabricEnvelope<T> bad;
          bad.seq = seq;
          bad.sum = sum;
          bad.checked = true;
          bad.payload = payload;
          if (!bad.payload.empty()) {
            auto* bytes = reinterpret_cast<unsigned char*>(
                bad.payload.data());
            bytes[static_cast<std::size_t>(attempt) %
                  (bad.payload.size() * sizeof(T))] ^= 0x40;
          }
          enqueue(std::move(bad), /*front=*/false);
        }
        ast.retries++;
        aegis::backoff_sleep(attempt);
      }
      break;
    }
  }
  FabricEnvelope<T> env;
  env.seq = seq;
  env.sum = sum;
  env.checked = true;
  env.payload = std::move(payload);
  enqueue(std::move(env), reorder);
}

template <class T>
std::vector<T> Fabric::take_from(
    std::map<std::pair<int, int>, std::deque<FabricEnvelope<T>>> Mailbox::*q,
    std::map<std::pair<int, int>, std::uint64_t> Mailbox::*seen,
    int self, int source, int tag) {
  const aegis::FaultPlan* plan = opts_.faults.get();
  if (plan != nullptr) maybe_kill(self, "mailbox receive");
  Mailbox& box = *mailboxes_[static_cast<std::size_t>(self)];
  std::unique_lock<std::mutex> lock(box.mu);
  const auto key = std::make_pair(source, tag);
  // Duplicate and corrupted envelopes are consumed and discarded inside the
  // loop, which can leave the queue empty again — hence wait-and-rescan
  // until a genuinely new, intact envelope is accepted.
  for (;;) {
    const auto ready = [&] {
      if (aborted_.load(std::memory_order_relaxed)) return true;
      auto it = (box.*q).find(key);
      return it != (box.*q).end() && !it->second.empty();
    };
    // Bounded while checking: a lost wakeup or a deadlocked peer would
    // otherwise hang this rank forever. On timeout, abort the fabric (so
    // peers unblock) and report who was stuck on what.
    if (!wait_bounded(box.cv, lock, hang_timeout(), ready)) {
      lock.unlock();
      hang_failure(self, take_context(self, source, tag));
    }
    auto it = (box.*q).find(key);
    if (it == (box.*q).end() || it->second.empty()) {
      abort_failure();
    }
    auto& dq = it->second;
    if (!dq.front().checked) {
      // Fault-free fast path: strict FIFO, no bookkeeping.
      std::vector<T> payload = std::move(dq.front().payload);
      dq.pop_front();
      return payload;
    }
    // Aegis path: consume in sequence order (heals reordering), discard
    // duplicates (seq already seen) and corrupted payloads (checksum
    // mismatch; the clean retransmission follows).
    auto best = dq.begin();
    for (auto e = std::next(dq.begin()); e != dq.end(); ++e) {
      if (e->seq < best->seq) best = e;
    }
    aegis::AegisStats& ast = aegis::stats();
    std::uint64_t& seen_seq = (box.*seen)[key];
    if (best->seq <= seen_seq) {
      dq.erase(best);
      ast.duplicates_dropped++;
      continue;
    }
    if (aegis::checksum_bytes(best->payload.data(),
                              best->payload.size() * sizeof(T)) !=
        best->sum) {
      dq.erase(best);
      ast.checksum_failures++;
      continue;
    }
    if (best != dq.begin()) ast.reorders_healed++;
    seen_seq = best->seq;
    std::vector<T> payload = std::move(best->payload);
    dq.erase(best);
    // Copies of the accepted message still queued are duplicates too; a
    // stream's last message may see no later receive to discard them.
    ast.duplicates_dropped += std::erase_if(
        dq, [&](const FabricEnvelope<T>& e) { return e.seq <= seen_seq; });
    return payload;
  }
}

std::vector<Scalar> Fabric::take(int self, int source, int tag) {
  return take_from(&Mailbox::queue, &Mailbox::seq_seen, self, source, tag);
}

std::vector<Index> Fabric::take_indices(int self, int source, int tag) {
  return take_from(&Mailbox::iqueue, &Mailbox::iseq_seen, self, source, tag);
}

void Fabric::ring(int rank) {
  Doorbell& bell = *doorbells_[static_cast<std::size_t>(rank)];
  if (bell.parked.load(std::memory_order_seq_cst) > 0) {
    // Empty critical section: the parked rank is either fully asleep
    // (notify wakes it) or has not yet evaluated its predicate under the
    // lock (it will see what the caller just published).
    { std::lock_guard<std::mutex> lock(bell.mu); }
    bell.cv.notify_all();
  }
}

template <class Ready>
void Fabric::await_collective(int rank, std::uint64_t round,
                              const Ready& ready) {
  if (ready()) return;
  const auto done = [&] {
    return ready() || aborted_.load(std::memory_order_relaxed);
  };
  if (!spin_before_park(done)) {
    stats_[static_cast<std::size_t>(rank)]->collective_parks++;
    park(rank, done, [&] { return collective_context(round); });
  }
  if (!ready()) abort_failure();
}

template <class Done, class Report>
void Fabric::park(int rank, const Done& done, const Report& report) {
  // The parked counter is the Dekker flag a publisher checks after its
  // seq_cst store (see ring); done() re-checks under the doorbell mutex.
  Doorbell& bell = *doorbells_[static_cast<std::size_t>(rank)];
  bell.parked.fetch_add(1, std::memory_order_seq_cst);
  {
    std::unique_lock<std::mutex> lock(bell.mu);
    if (!wait_bounded(bell.cv, lock, hang_timeout(), done)) {
      bell.parked.fetch_sub(1, std::memory_order_seq_cst);
      lock.unlock();
      hang_failure(rank, report());
    }
  }
  bell.parked.fetch_sub(1, std::memory_order_seq_cst);
}

std::string Fabric::collective_context(std::uint64_t round) const {
  std::ostringstream os;
  os << "allreduce/barrier round " << round << " (not arrived:";
  bool any = false;
  for (int r = 0; r < nranks_; ++r) {
    if (arrivals_[static_cast<std::size_t>(r)].round.load(
            std::memory_order_seq_cst) < round) {
      os << " " << r;
      any = true;
    }
  }
  if (!any) os << " none; rank 0 has not published the result";
  os << ")";
  return os.str();
}

void Fabric::inject_slot_fault(int src, int dst, int tag, std::uint64_t round,
                               const char* link) const {
  const aegis::FaultPlan* plan = opts_.faults.get();
  if (plan == nullptr || !plan->corrupts_messages()) return;
  // A slot holds one round at a time and its round counters already order
  // and deduplicate rounds, so dup and reorder verdicts degenerate to a
  // recoverable retransmission, exactly like drop and bit-flip (a bit-flip
  // is the attempt the receiver's checksum would reject). Delay is a plain
  // in-flight stall.
  const aegis::FaultVerdict verdict =
      plan->message_fault(src, dst, tag, round);
  aegis::AegisStats& ast = aegis::stats();
  if (verdict.kind == aegis::FaultKind::kDelay) {
    ast.faults_injected++;
    ast.delays++;
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(plan->delay_ms()));
    return;
  }
  if (verdict.kind == aegis::FaultKind::kNone ||
      verdict.kind == aegis::FaultKind::kKillRank) {
    return;
  }
  ast.faults_injected++;
  for (int attempt = 0; attempt < verdict.repeat; ++attempt) {
    if (attempt >= plan->max_retries()) {
      throw RankFailure(
          src,
          std::string("unrecoverable ") +
              aegis::fault_kind_name(verdict.kind) + " fault: " + link +
              " (src=" + std::to_string(src) + ", dst=" +
              std::to_string(dst) + ", round " + std::to_string(round) +
              ") still faulty after " + std::to_string(plan->max_retries()) +
              " retries",
          __FILE__, __LINE__);
    }
    if (verdict.kind == aegis::FaultKind::kBitFlip) {
      ast.checksum_failures++;
    }
    ast.retries++;
    aegis::backoff_sleep(attempt);
  }
}

double Fabric::hang_timeout() const {
  return checker_ != nullptr ? opts_.hang_timeout_s : 0.0;
}

void Fabric::maybe_kill(int rank, const char* where) const {
  const aegis::FaultPlan* plan = opts_.faults.get();
  if (plan == nullptr || !plan->check_kill(rank)) return;
  aegis::stats().rank_kills++;
  throw RankFailure(rank,
                    std::string("injected rank kill at ") + where +
                        " (fault plan '" + plan->spec() + "')",
                    __FILE__, __LINE__);
}

void Fabric::abort_failure(int peer) const {
  // Every unwinding rank reports the same root cause, so a test (or an
  // operator) can assert the structured failure on all ranks, not just the
  // one that died.
  int failed = first_failed_rank_.load(std::memory_order_seq_cst);
  if (failed < 0) failed = peer;
  if (failed < 0) {
    throw FabricAborted(failed, "fabric aborted: a peer rank failed",
                        __FILE__, __LINE__);
  }
  throw FabricAborted(failed,
                      "fabric aborted: unwinding pending operations after "
                      "the failure of rank " + std::to_string(failed),
                      __FILE__, __LINE__);
}

GhostChannel* Fabric::open_channel_endpoint(int src, int dst,
                                            bool sender_side) {
  std::lock_guard<std::mutex> lock(channels_mu_);
  ChannelSlots& slots = channels_[{src, dst}];
  std::size_t& next =
      sender_side ? slots.opened_by_sender : slots.opened_by_receiver;
  if (next >= slots.channels.size()) {
    auto ch = std::make_unique<GhostChannel>();
    ch->src = src;
    ch->dst = dst;
    slots.channels.push_back(std::move(ch));
  }
  return slots.channels[next++].get();
}

void Fabric::hang_failure(int rank, const std::string& what) {
  // Claim the root cause before waking the peers: a peer parked in the
  // same collective would otherwise unwind first and Fabric::run would
  // rethrow its secondary abort instead of this report.
  int expected = -1;
  first_failed_rank_.compare_exchange_strong(expected, rank);
  abort_all();
  std::ostringstream os;
  os << "fabric checker: possible lost wakeup or deadlock: rank " << rank
     << " blocked in " << what << " for more than " << opts_.hang_timeout_s
     << "s";
  if (checker_ != nullptr) os << "\n" << checker_->trace(16);
  KESTREL_FAIL(os.str());
}

void Fabric::abort_all() {
  aborted_.store(true, std::memory_order_relaxed);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box->mu);
    box->cv.notify_all();
  }
  for (auto& bell : doorbells_) {
    { std::lock_guard<std::mutex> lock(bell->mu); }
    bell->cv.notify_all();
  }
  // Wake parked channel senders too: their receiver may be the rank that
  // just failed.
  std::lock_guard<std::mutex> reg_lock(channels_mu_);
  for (auto& [key, slots] : channels_) {
    for (auto& ch : slots.channels) {
      { std::lock_guard<std::mutex> lock(ch->mu); }
      ch->cv.notify_all();
    }
  }
}

void Fabric::run(int nranks, const std::function<void(Comm&)>& fn) {
  run(nranks, FabricOptions{}, fn);
}

void Fabric::run(int nranks, const FabricOptions& opts,
                 const std::function<void(Comm&)>& fn) {
  KESTREL_CHECK(nranks >= 1, "need at least one rank");
  Fabric fabric(nranks, opts);
  if (nranks == 1) {
    // Every rank — including the calling thread here — profiles into its
    // own stack-local instance, never the shared global: library code
    // instrumented with prof::current() is race-free on the fabric by
    // construction. Rank profilers die with the rank, so reduction and
    // export (prof::export_all) must happen inside fn.
    prof::Profiler rank_prof;
    prof::AttachGuard guard(&rank_prof);
    Comm comm(&fabric, 0, 1);
    fn(comm);
    // Un-waited requests are a bug even on one rank: the message (from a
    // self-send) would be silently dropped.
    if (fabric.checker_) fabric.checker_->on_rank_exit(0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(nranks));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    threads.emplace_back([&, r] {
      try {
        prof::Profiler rank_prof;
        prof::AttachGuard guard(&rank_prof);
        Comm comm(&fabric, r, nranks);
        fn(comm);
        // Only on a normal return, and only while no other rank has failed:
        // after a failure, dangling requests on surviving ranks are
        // expected, not a bug. A rank that a peer names as failed (it left
        // an exchange mid-round) is checked, so its report is not lost.
        const int failed = fabric.first_failed_rank_.load();
        if (fabric.checker_ && (failed < 0 || failed == r)) {
          fabric.checker_->on_rank_exit(r);
        }
      } catch (const FabricAborted& e) {
        // A consequence: it may claim the root cause for the rank it names,
        // whose own error (if it has one) is then the one rethrown.
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        int expected = -1;
        fabric.first_failed_rank_.compare_exchange_strong(expected,
                                                          e.failed_rank());
        fabric.abort_all();
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        int expected = -1;
        fabric.first_failed_rank_.compare_exchange_strong(expected, r);
        fabric.abort_all();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Rethrow the root-cause exception (the first rank that failed), not a
  // secondary "fabric aborted" error from a rank that was merely unblocked;
  // a secondary error only when the named rank itself returned normally.
  const int first = fabric.first_failed_rank_.load();
  if (first >= 0 && errors[static_cast<std::size_t>(first)]) {
    std::rethrow_exception(errors[static_cast<std::size_t>(first)]);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace kestrel::par
