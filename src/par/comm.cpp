#include "par/comm.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
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
// Names the collective slot's messages to the fault plan; persistent
// channels use their non-negative channel index.
constexpr int kTagSlot = -1;

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

/// Seconds from an environment variable, or `fallback` when it is unset.
/// A value that is not wholly one finite number throws: read as 0 or as its
/// numeric prefix, a typo would silently change the setting.
double env_seconds(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  char* end = nullptr;
  const double s = std::strtod(v, &end);
  if (*v == '\0' || *end != '\0' || !std::isfinite(s)) {
    KESTREL_FAIL(std::string(name) + " must be a number of seconds, got '" +
                 v + "'");
  }
  return s;
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
  hang_timeout_s = env_seconds("KESTREL_FABRIC_HANG_TIMEOUT", 30.0);
  faults = aegis::FaultPlan::from_env();
}

// ---- Comm ------------------------------------------------------------

FabricChecker* Comm::checker() const { return fabric_->checker_.get(); }

void Comm::enter_collective(FabricEventKind kind) {
  if (FabricChecker* chk = checker()) chk->on_collective(rank_, kind);
  if (prof::enabled()) prof::current().reduction();
}

Scalar Comm::allreduce(Scalar value, ReduceOp op) {
  enter_collective(FabricEventKind::kAllreduce);
  return allreduce_impl(value, op, FabricEventKind::kAllreduce);
}

Scalar Comm::allreduce_impl(Scalar value, ReduceOp op, FabricEventKind kind) {
  if (size_ == 1) return value;
  Fabric& f = *fabric_;
  const std::uint64_t round = f.slot_arrive(rank_, kind, value, nullptr, 0);
  if (rank_ != 0) {
    f.slot_await_result(rank_, round);
    return f.result_.value;
  }
  // Rank 0 folds in rank order, so a sum's bits do not depend on the order
  // in which the ranks arrive.
  Scalar acc = value;
  for (int r = 1; r < size_; ++r) {
    acc = reduce2(acc, f.slot_arrival(r, round).value, op);
  }
  f.result_.value = acc;
  f.slot_publish(round);
  return acc;
}

std::int64_t Comm::allreduce(std::int64_t value, ReduceOp op) {
  // int64 magnitudes used here (counts, sizes) are far below 2^53, so the
  // double payload is exact.
  return static_cast<std::int64_t>(
      allreduce(static_cast<Scalar>(value), op));
}

std::vector<Scalar> Comm::allgatherv(const std::vector<Scalar>& local) {
  enter_collective(FabricEventKind::kAllgatherv);
  return allgatherv_impl(local);
}

std::vector<Index> Comm::allgatherv(const std::vector<Index>& local) {
  enter_collective(FabricEventKind::kAllgatherv);
  return allgatherv_impl(local);
}

template <class T>
std::vector<T> Comm::allgatherv_impl(const std::vector<T>& local) {
  if (size_ == 1) return local;
  Fabric& f = *fabric_;
  FabricStats& st = *f.stats_[static_cast<std::size_t>(rank_)];
  // The arrival line points at `local`, which stays alive until this rank
  // has seen the result, so rank 0 copies straight from it.
  const std::uint64_t round =
      f.slot_arrive(rank_, FabricEventKind::kAllgatherv, Scalar{0},
                    local.data(), local.size() * sizeof(T));
  if (rank_ == 0) {
    // Every rank's arrival at this round proves it has copied the previous
    // result out of gather_, so only now may the buffer change.
    std::size_t total = 0;
    for (int r = 0; r < size_; ++r) total += f.slot_arrival(r, round).bytes;
    f.gather_.resize(total);
    std::size_t at = 0;
    for (const Fabric::SlotLine& line : f.arrivals_) {
      if (line.bytes > 0) {
        std::memcpy(f.gather_.data() + at, line.data, line.bytes);
      }
      at += line.bytes;
    }
    st.payload_copies += static_cast<std::uint64_t>(size_);
    f.result_.data = f.gather_.data();
    f.result_.bytes = total;
    f.slot_publish(round);
  } else {
    f.slot_await_result(rank_, round);
  }
  std::vector<T> all(f.result_.bytes / sizeof(T));
  if (!all.empty()) std::memcpy(all.data(), f.result_.data, f.result_.bytes);
  st.payload_copies++;
  return all;
}

void Comm::barrier() {
  enter_collective(FabricEventKind::kBarrier);
  (void)allreduce_impl(Scalar{0}, ReduceOp::kSum, FabricEventKind::kBarrier);
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
  doorbells_.reserve(static_cast<std::size_t>(nranks));
  stats_.reserve(static_cast<std::size_t>(nranks));
  for (int r = 0; r < nranks; ++r) {
    doorbells_.push_back(std::make_unique<Doorbell>());
    stats_.push_back(std::make_unique<FabricStats>());
  }
}

Fabric::~Fabric() = default;

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
    park(rank, done, [&] { return collective_context(rank, round); });
  }
  if (!ready()) abort_failure();
}

std::uint64_t Fabric::slot_arrive(int rank, FabricEventKind kind,
                                  Scalar value, const void* data,
                                  std::size_t bytes) {
  // A rank that unwound from an aborted collective must not write its line
  // again: rank 0 may still be reading the old contribution.
  if (aborted_.load(std::memory_order_relaxed)) abort_failure();
  SlotLine& mine = arrivals_[static_cast<std::size_t>(rank)];
  const std::uint64_t round = mine.round.load(std::memory_order_relaxed) + 1;
  // Every rank's contribution counts as one message to rank 0.
  maybe_kill(rank, "collective");
  inject_slot_fault(rank, 0, kTagSlot, round, "collective slot");
  mine.kind = kind;
  mine.value = value;
  mine.data = data;
  mine.bytes = bytes;
  mine.round.store(round, std::memory_order_seq_cst);
  if (rank != 0) ring(0);
  return round;
}

const Fabric::SlotLine& Fabric::slot_arrival(int r, std::uint64_t round) {
  const SlotLine& line = arrivals_[static_cast<std::size_t>(r)];
  await_collective(0, round, [&] {
    return line.round.load(std::memory_order_seq_cst) >= round;
  });
  const FabricEventKind mine = arrivals_[0].kind;
  if (line.kind != mine) {
    std::ostringstream os;
    os << "mismatched collectives in slot round " << round << ": rank 0 "
       << "entered " << fabric_event_name(mine) << " while rank " << r
       << " entered " << fabric_event_name(line.kind);
    KESTREL_FAIL(os.str());
  }
  return line;
}

void Fabric::slot_publish(std::uint64_t round) {
  result_.round.store(round, std::memory_order_seq_cst);
  for (int r = 1; r < nranks_; ++r) ring(r);
}

void Fabric::slot_await_result(int rank, std::uint64_t round) {
  await_collective(rank, round, [&] {
    return result_.round.load(std::memory_order_seq_cst) >= round;
  });
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

std::string Fabric::collective_context(int rank, std::uint64_t round) const {
  std::ostringstream os;
  os << fabric_event_name(arrivals_[static_cast<std::size_t>(rank)].kind)
     << " round " << round << " (not arrived:";
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
        // after a failure, undrained receives on surviving ranks are
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
