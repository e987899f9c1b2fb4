#pragma once
// In-process message-passing fabric.
//
// The paper's parallel SpMV runs on MPI; Kestrel runs in one process
// without MPI, so it provides an MPI-shaped substrate whose ranks are
// std::threads and whose point-to-point messages travel through in-memory
// mailboxes. The subset implemented (nonblocking send/recv + wait,
// allreduce, barrier, gather) is exactly what the overlapped SpMV of paper
// section 2.2 and the Krylov solvers need. Semantics follow MPI: sends are
// eager and nonblocking, receives match on (source, tag) in posting order.
// Inside the library the mailboxes carry only ParMatrix's set-up plan
// messages and allgatherv; every SpMV ghost exchange runs on the
// persistent channels described below.
//
// allreduce and barrier do not use the mailboxes. They run on a combining
// slot the Fabric owns: one cache line per rank holds its latest arrival,
// one more holds rank 0's result, and rank 0 folds the arrivals in rank
// order, so a sum has the same bits whatever order the ranks arrive in. A
// collective allocates nothing and, when nobody has to park, costs each
// rank a few atomic loads and stores. allgatherv stays on the mailboxes:
// only set-up and result gathering use it.
//
// Kestrel Slipstream's persistent channels are modeled on
// MPI_Send_init/MPI_Recv_init + MPI_Start/MPI_Waitany: both endpoints of a
// fixed ghost-exchange pattern register once (Comm::open_exchange), the
// receiver pins an in-place destination slice per peer, and steady-state
// traffic is one memcpy from the sender's pack buffer straight into that
// slice — no heap allocation, no mailbox map, no intermediate payload
// vector. Synchronization is lock-light: a seq_cst armed/delivered counter
// pair per channel carries the fast path; mutexes and condition variables
// are touched only to park when a rank genuinely has to wait.
//
// Correctness instrumentation (Kestrel Sentry): debug builds, sanitizer
// presets and KESTREL_FABRIC_CHECK=1 attach a FabricChecker (par/checker.hpp)
// that records a happens-before event trace and fails loudly on mismatched
// collectives, double-wait, un-waited requests, undrained persistent
// channels and fabric hangs.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "base/types.hpp"

namespace kestrel::aegis {
class FaultPlan;
}

namespace kestrel::par {

class Fabric;
class FabricChecker;
struct GhostChannel;

/// Handle for a pending nonblocking receive. Waiting on the same request
/// twice (directly or via a copy) is a contract violation: it throws
/// unconditionally, and with the fabric checker enabled it is reported with
/// rank/source/tag context and the recent event trace.
struct Request {
  int source = -1;
  int tag = -1;
  std::vector<Scalar>* sink = nullptr;
  bool done = false;
  /// Checker-issued id (0 when checking is disabled). Used to detect
  /// double-wait through copies and requests dropped without a wait.
  std::uint64_t id = 0;
};

/// Per-rank fabric counters (Kestrel Slipstream observability). Each rank
/// thread is the only writer of its own cell, so the fields are plain
/// integers; read them through Comm::stats() on the owning rank.
struct FabricStats {
  std::uint64_t mailbox_msgs = 0;     ///< messages sent through the mailbox
  std::uint64_t mailbox_allocs = 0;   ///< payload vectors allocated (mailbox)
  std::uint64_t payload_copies = 0;   ///< payload copies, all paths
  std::uint64_t channel_sends = 0;    ///< persistent-channel deliveries
  std::uint64_t send_parks = 0;       ///< sender blocked awaiting a re-arm
  std::uint64_t wait_any_calls = 0;   ///< PersistentExchange::wait_any calls
  std::uint64_t wait_any_wakeups = 0; ///< doorbell parks/wakeups in wait_any
  std::uint64_t collective_parks = 0; ///< parks in allreduce/barrier
};

/// One sender-side persistent channel: `count` scalars per round to `peer`.
struct GhostSendSpec {
  int peer = -1;
  Index count = 0;
};

/// One receiver-side persistent channel: `count` scalars per round from
/// `peer`, delivered in place into [dest, dest + count). `dest` must stay
/// valid for the lifetime of the exchange.
struct GhostRecvSpec {
  int peer = -1;
  Scalar* dest = nullptr;
  Index count = 0;
};

/// Persistent ghost-exchange channels (Kestrel Slipstream): the fabric
/// analogue of MPI_Send_init/MPI_Recv_init + MPI_Start/MPI_Waitany.
///
/// Lifecycle per round, on the receiver side:
///   arm()          re-posts every receive (marks the destination slices
///                  writable). Requires the previous round fully drained.
///   wait_any()     blocks until SOME armed channel has been delivered and
///                  returns its recv-spec index; each channel completes
///                  exactly once per round, in arrival order, with the data
///                  already in place at its registered destination.
/// and on the sender side:
///   send(i, p, n)  one-copy delivery of n packed scalars into peer i's
///                  registered slice. Blocks (bounded-skew rendezvous) only
///                  until the peer has re-armed the channel, i.e. senders
///                  can run at most one exchange round ahead.
///
/// Matching: the k-th channel opened from rank S to rank R on the send side
/// pairs with the k-th channel opened from S on R's receive side. Exchange
/// setup is collective in practice (ParMatrix construction), which makes
/// this ordering deterministic.
class PersistentExchange {
 public:
  PersistentExchange(const PersistentExchange&) = delete;
  PersistentExchange& operator=(const PersistentExchange&) = delete;
  /// Closes the receive channels and waits out any sender still copying
  /// into their slices, so the slices' owner can free them.
  ~PersistentExchange();

  int nsend() const { return static_cast<int>(sends_.size()); }
  int nrecv() const { return static_cast<int>(recvs_.size()); }

  /// Receiver: post (re-arm) every receive channel for a new round.
  void arm();
  /// Sender: deliver `count` scalars into the peer slice of send channel
  /// `send_idx`. `count` must equal the registered plan count.
  void send(int send_idx, const Scalar* packed, Index count);
  /// Receiver: block until a newly delivered channel exists; returns its
  /// index into the recv specs. Must be called exactly nrecv() times per
  /// armed round.
  int wait_any();
  /// Receiver: drain every outstanding receive of the current round.
  void wait_all();

 private:
  friend class Comm;
  PersistentExchange(Fabric* fabric, int rank);

  struct SendSlot {
    GhostChannel* ch = nullptr;
    int peer = -1;
    Index count = 0;
    std::uint64_t seq = 0;  ///< rounds sent so far on this channel
  };
  struct RecvSlot {
    GhostChannel* ch = nullptr;
    int peer = -1;
    Index count = 0;
    bool done = false;  ///< completed in the current round
  };

  Fabric* fabric_;
  int rank_;
  std::vector<SendSlot> sends_;
  std::vector<RecvSlot> recvs_;
  std::uint64_t round_ = 0;  ///< arm rounds so far (receiver side)
  int completed_ = 0;        ///< receives completed in the current round
};

/// Per-rank communicator; valid only inside Fabric::run.
class Comm {
 public:
  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Eager nonblocking send: data is copied into the destination mailbox
  /// and the call returns immediately.
  void isend(int dest, int tag, const std::vector<Scalar>& data);
  void isend(int dest, int tag, const Scalar* data, std::size_t count);
  /// Typed index message: global indices travel as Index, not round-tripped
  /// through Scalar (which silently loses precision for indices >= 2^53 and
  /// doubles the bandwidth). Index and Scalar payloads queue separately, so
  /// a tag may carry only one payload type at a time. Named (rather than an
  /// isend overload) so brace-initialized payloads stay unambiguous.
  void isend_indices(int dest, int tag, const std::vector<Index>& data);

  /// Posts a receive; wait() blocks until a message from (source, tag)
  /// arrives and fills *sink. Every posted request must be waited on
  /// exactly once before the rank function returns.
  Request irecv(int source, int tag, std::vector<Scalar>* sink);
  void wait(Request& req);

  /// Blocking receive convenience.
  std::vector<Scalar> recv(int source, int tag);
  /// Blocking receive of a typed index message (see isend overload above).
  std::vector<Index> recv_indices(int source, int tag);

  enum class ReduceOp { kSum, kMax, kMin };
  Scalar allreduce(Scalar value, ReduceOp op = ReduceOp::kSum);
  std::int64_t allreduce(std::int64_t value, ReduceOp op = ReduceOp::kSum);

  /// Every rank contributes a vector; every rank receives the
  /// rank-concatenated result.
  std::vector<Scalar> allgatherv(const std::vector<Scalar>& local);
  std::vector<Index> allgatherv(const std::vector<Index>& local);

  void barrier();

  /// Registers this rank's half of a persistent ghost exchange (see
  /// PersistentExchange). Purely local: no synchronization with the peers
  /// happens until the first arm()/send().
  std::shared_ptr<PersistentExchange> open_exchange(
      const std::vector<GhostSendSpec>& sends,
      const std::vector<GhostRecvSpec>& recvs);

  /// This rank's fabric counters (single-writer: this rank's thread).
  const FabricStats& stats() const;
  /// Collective: sums every counter across ranks and records the totals as
  /// `fabric/...` metrics on the current profiler, so -log_json dumps carry
  /// the fabric's allocation/copy/wakeup behavior.
  void publish_stats_metrics();

 private:
  friend class Fabric;
  friend class PersistentExchange;
  Comm(Fabric* fabric, int rank, int size)
      : fabric_(fabric), rank_(rank), size_(size) {}
  /// Collective bodies without checker events; the public entry points
  /// record exactly one event each so the checker sees the user's program
  /// order, not the implementation's message pattern. allreduce_impl is
  /// the combining slot (see Fabric::SlotLine); barrier is an allreduce
  /// whose result nobody reads.
  Scalar allreduce_impl(Scalar value, ReduceOp op);
  std::vector<Scalar> allgatherv_impl(const std::vector<Scalar>& local);
  std::vector<Index> allgatherv_impl(const std::vector<Index>& local);
  FabricChecker* checker() const;

  Fabric* fabric_;
  int rank_;
  int size_;
};

/// Configuration for one Fabric::run. Defaults come from the build and the
/// environment so test suites can flip checking on globally:
///   * check: KESTREL_FABRIC_CHECK=0/1 if set; else KESTREL_FABRIC_CHECK_DEFAULT
///     if compiled in (the sanitizer presets define it to 1); else on in
///     debug (!NDEBUG) builds and off in release builds.
///   * hang_timeout_s: KESTREL_FABRIC_TIMEOUT_MS milliseconds if set, else
///     KESTREL_FABRIC_HANG_TIMEOUT seconds if set, else 30s. Only active
///     while checking; <= 0 disables hang detection.
///   * faults: the Kestrel Aegis fault-injection plan; parsed from
///     KESTREL_AEGIS when set, nullptr (no injection) otherwise.
struct FabricOptions {
  FabricOptions();  // resolves the defaults described above
  bool check;
  double hang_timeout_s;
  std::shared_ptr<const aegis::FaultPlan> faults;
};

/// One mailbox message (Kestrel Aegis envelope): the payload plus the
/// per-(source, tag) sequence number and payload checksum that let the
/// receiver discard duplicates/corruption and re-sequence reordered
/// deliveries. seq stays 0 (and checks are skipped) when no fault plan is
/// attached, so the fault-free fast path pays nothing.
template <class T>
struct FabricEnvelope {
  std::uint64_t seq = 0;
  std::uint64_t sum = 0;    ///< FNV-1a of payload bytes; valid iff checked
  bool checked = false;
  std::vector<T> payload;
};

/// Owns the mailboxes, persistent channels and threads. Usage:
///   Fabric::run(4, [](Comm& comm) { ... });
class Fabric {
 public:
  /// Spawns `nranks` threads executing fn(comm); rethrows the first rank
  /// exception after all threads join.
  static void run(int nranks, const std::function<void(Comm&)>& fn);
  static void run(int nranks, const FabricOptions& opts,
                  const std::function<void(Comm&)>& fn);

 private:
  friend class Comm;
  friend class PersistentExchange;
  Fabric(int nranks, const FabricOptions& opts);
  ~Fabric();

  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    // (source, tag) -> FIFO of message envelopes, one queue per payload type
    std::map<std::pair<int, int>, std::deque<FabricEnvelope<Scalar>>> queue;
    std::map<std::pair<int, int>, std::deque<FabricEnvelope<Index>>> iqueue;
    // Highest sequence number consumed per (source, tag) stream; entries at
    // or below it are duplicates. Guarded by mu. Only populated when a
    // fault plan is active.
    std::map<std::pair<int, int>, std::uint64_t> seq_seen;
    std::map<std::pair<int, int>, std::uint64_t> iseq_seen;
  };

  /// Per-rank doorbell. A rank parks on its own doorbell when it waits in
  /// PersistentExchange::wait_any or in a collective; whoever publishes
  /// what it waits for (a channel delivery, an arrival, a result) rings it,
  /// but only when the rank advertised it is parked (lock-light fast path).
  struct Doorbell {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> parked{0};
  };

  /// One cache line of the collective slot: a round number and the value
  /// published with it. Rank r's arrival line holds the number of
  /// collectives r has entered and its latest contribution; the result
  /// line holds the number of collectives rank 0 has combined and the
  /// latest result. One line per rank suffices: a rank cannot arrive at
  /// round g+1 before it has read round g's result, and rank 0 cannot
  /// publish g+1 before every rank has arrived at g+1.
  struct alignas(64) SlotLine {
    std::atomic<std::uint64_t> round{0};
    Scalar value = 0.0;
  };

  /// Persistent channels between one ordered (src, dst) pair, in the order
  /// they were opened. Each side claims slots independently; the slot is
  /// created by whichever endpoint registers first.
  struct ChannelSlots {
    std::vector<std::unique_ptr<GhostChannel>> channels;
    std::size_t opened_by_sender = 0;
    std::size_t opened_by_receiver = 0;
  };

  void deliver(int dest, int source, int tag, std::vector<Scalar> payload);
  void deliver(int dest, int source, int tag, std::vector<Index> payload);
  template <class T>
  void deliver_impl(
      std::map<std::pair<int, int>, std::deque<FabricEnvelope<T>>>
          Mailbox::*q,
      std::map<std::pair<int, int>, std::uint64_t> Mailbox::*seen, int dest,
      int source, int tag, std::vector<T> payload, bool is_index);
  std::vector<Scalar> take(int self, int source, int tag);
  std::vector<Index> take_indices(int self, int source, int tag);
  template <class T>
  std::vector<T> take_from(
      std::map<std::pair<int, int>, std::deque<FabricEnvelope<T>>>
          Mailbox::*q,
      std::map<std::pair<int, int>, std::uint64_t> Mailbox::*seen,
      int self, int source, int tag);
  /// Claims the next channel slot for (src -> dst) on the given side,
  /// creating the channel if this endpoint registers first.
  GhostChannel* open_channel_endpoint(int src, int dst, bool sender_side);
  /// Wakes `rank` if it is parked on its doorbell.
  void ring(int rank);
  /// Parks `rank` on its doorbell until done(). With the checker on, a wait
  /// longer than the hang timeout fails through hang_failure, with
  /// report() saying what the rank was waiting for.
  template <class Done, class Report>
  void park(int rank, const Done& done, const Report& report);
  /// Blocks `rank` in collective `round` until ready(): spins, then parks
  /// on the rank's doorbell (counted in collective_parks). Unwinds through
  /// abort_failure when the fabric aborts first, and through hang_failure
  /// when the checker's hang timeout expires.
  template <class Ready>
  void await_collective(int rank, std::uint64_t round, const Ready& ready);
  /// Hang-report text for a collective: the round and the ranks that have
  /// not arrived at it.
  std::string collective_context(std::uint64_t round) const;
  /// Kestrel Aegis on the single-slot transports (persistent channels and
  /// the collective slot): applies the fault plan's verdict for one
  /// (src, dst, tag, round) message. Throws RankFailure once a fault
  /// outlasts max_retries.
  void inject_slot_fault(int src, int dst, int tag, std::uint64_t round,
                         const char* link) const;
  /// The hang timeout in force: opts_.hang_timeout_s while the checker is
  /// attached, 0 (wait forever) otherwise.
  double hang_timeout() const;
  /// Wakes every blocked rank after a rank failed, so one rank's exception
  /// cannot deadlock the rest of the fabric.
  void abort_all();
  [[noreturn]] void hang_failure(int rank, const std::string& what);
  /// Unwind path for a rank woken by abort_all, or for a sender whose
  /// receiver `peer` closed the channel: throws the structured RankFailure
  /// naming the root-cause rank, or `peer` while no root cause is claimed.
  [[noreturn]] void abort_failure(int peer = -1) const;
  /// Throws RankFailure if the fault plan kills `rank` at this consultation.
  void maybe_kill(int rank, const char* where) const;

  int nranks_;
  FabricOptions opts_;
  std::unique_ptr<FabricChecker> checker_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<Doorbell>> doorbells_;
  std::vector<std::unique_ptr<FabricStats>> stats_;
  /// The collective slot: one arrival line per rank, then the result line.
  std::vector<SlotLine> arrivals_;
  SlotLine result_;
  /// Per-rank sender sequence counters, keyed (dest, tag, index-stream).
  /// Single-writer: only the owning rank's thread sends from it.
  std::vector<std::unique_ptr<
      std::map<std::tuple<int, int, bool>, std::uint64_t>>>
      send_seq_;
  std::mutex channels_mu_;
  std::map<std::pair<int, int>, ChannelSlots> channels_;
  std::atomic<bool> aborted_{false};
  std::atomic<int> first_failed_rank_{-1};
};

}  // namespace kestrel::par
