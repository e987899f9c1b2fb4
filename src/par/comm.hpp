#pragma once
// In-process message-passing fabric.
//
// The paper's parallel SpMV runs on MPI; Kestrel runs in one process
// without MPI, so it provides an MPI-shaped substrate whose ranks are
// std::threads. It has exactly what the overlapped SpMV of paper section
// 2.2 and the Krylov solvers need, on one kind of transport: single-slot
// rounds, where each rank owns the line it writes and a round counter
// orders and deduplicates what travels through it.
//
// Kestrel Slipstream's persistent channels carry every SpMV ghost
// exchange. They are modeled on MPI_Send_init/MPI_Recv_init +
// MPI_Start/MPI_Waitany: both endpoints of a fixed ghost-exchange pattern
// register once (Comm::open_exchange), the receiver pins an in-place
// destination slice per peer, and steady-state traffic is one memcpy from
// the sender's pack buffer straight into that slice — no heap allocation,
// no intermediate payload vector. Synchronization is lock-light: a seq_cst
// armed/delivered counter pair per channel carries the fast path; mutexes
// and condition variables are touched only to park when a rank genuinely
// has to wait.
//
// allreduce, barrier and allgatherv run on a combining slot the Fabric
// owns: one cache line per rank holds its latest arrival (its collective
// kind and its contribution), one more holds rank 0's result. Rank 0 folds
// or concatenates the arrivals in rank order, so a sum has the same bits
// whatever order the ranks arrive in, and it fails the collective when
// two ranks entered different kinds. An allreduce or barrier allocates
// nothing. ParMatrix's one-time set-up plan travels through one
// allgatherv, as PETSc builds its scatter plans with a set-up collective.
//
// Correctness instrumentation (Kestrel Sentry): debug builds, sanitizer
// presets and KESTREL_FABRIC_CHECK=1 attach a FabricChecker (par/checker.hpp)
// that records a happens-before event trace and fails loudly on mismatched
// collectives, persistent-channel misuse and fabric hangs.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace kestrel::aegis {
class FaultPlan;
}

namespace kestrel::par {

class Fabric;
class FabricChecker;
enum class FabricEventKind : int;
struct GhostChannel;

/// Per-rank fabric counters (Kestrel Slipstream observability). Each rank
/// thread is the only writer of its own cell, so the fields are plain
/// integers; read them through Comm::stats() on the owning rank.
struct FabricStats {
  /// Nothing writes these; kept while perfbench/src/wl_dist_cg.cpp reads
  /// them.
  std::uint64_t mailbox_msgs = 0;
  std::uint64_t mailbox_allocs = 0;
  /// Payload copies, all paths: one per channel send; per allgatherv, one
  /// per contribution rank 0 concatenates and one per rank copying out.
  std::uint64_t payload_copies = 0;
  std::uint64_t channel_sends = 0;    ///< persistent-channel deliveries
  std::uint64_t send_parks = 0;       ///< sender blocked awaiting a re-arm
  std::uint64_t wait_any_calls = 0;   ///< PersistentExchange::wait_any calls
  std::uint64_t wait_any_wakeups = 0; ///< doorbell parks/wakeups in wait_any
  std::uint64_t collective_parks = 0; ///< parks in slot collectives
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

  enum class ReduceOp { kSum, kMax, kMin };
  Scalar allreduce(Scalar value, ReduceOp op = ReduceOp::kSum);
  std::int64_t allreduce(std::int64_t value, ReduceOp op = ReduceOp::kSum);

  /// Every rank contributes a vector; every rank receives the
  /// rank-concatenated result. The Index overload carries indices as
  /// themselves, never round-tripped through Scalar.
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
  /// Slot bodies (see Fabric::SlotLine). barrier is an allreduce of kind
  /// kBarrier whose result nobody reads; both allgatherv overloads share
  /// one template body.
  Scalar allreduce_impl(Scalar value, ReduceOp op, FabricEventKind kind);
  template <class T>
  std::vector<T> allgatherv_impl(const std::vector<T>& local);
  /// Records the checker event and the profiler reduction of one public
  /// collective entry.
  void enter_collective(FabricEventKind kind);
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
///   * hang_timeout_s: KESTREL_FABRIC_HANG_TIMEOUT seconds (fractions
///     allowed) if set, else 30s; a value that is not a number throws.
///     Only active while checking; <= 0 disables hang detection.
///   * faults: the Kestrel Aegis fault-injection plan; parsed from
///     KESTREL_AEGIS when set, nullptr (no injection) otherwise.
struct FabricOptions {
  FabricOptions();  // resolves the defaults described above
  bool check;
  double hang_timeout_s;
  std::shared_ptr<const aegis::FaultPlan> faults;
};

/// Owns the persistent channels, the collective slot and the threads.
/// Usage:
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

  /// Per-rank doorbell. A rank parks on its own doorbell when it waits in
  /// PersistentExchange::wait_any or in a collective; whoever publishes
  /// what it waits for (a channel delivery, an arrival, a result) rings it,
  /// but only when the rank advertised it is parked (lock-light fast path).
  struct Doorbell {
    std::mutex mu;
    std::condition_variable cv;
    std::atomic<int> parked{0};
  };

  /// One cache line of the collective slot: a round number and what was
  /// published with it. Rank r's arrival line holds the number of
  /// collectives r has entered, the kind of the latest and r's
  /// contribution to it; the result line holds the number of collectives
  /// rank 0 has combined and the latest result. One line per rank
  /// suffices: a rank cannot arrive at round g+1 before it has read round
  /// g's result, and rank 0 cannot publish g+1 before every rank has
  /// arrived at g+1. The same argument lets rank 0 reuse gather_: every
  /// rank's arrival at g+1 proves it has copied g's result out.
  struct alignas(64) SlotLine {
    std::atomic<std::uint64_t> round{0};
    Scalar value = 0.0;           ///< allreduce contribution or result
    const void* data = nullptr;   ///< allgatherv contribution or result
    std::size_t bytes = 0;        ///< its length in bytes
    FabricEventKind kind{};       ///< arrival lines: the collective entered
  };
  static_assert(sizeof(SlotLine) == 64, "one cache line per slot line");

  /// Persistent channels between one ordered (src, dst) pair, in the order
  /// they were opened. Each side claims slots independently; the slot is
  /// created by whichever endpoint registers first.
  struct ChannelSlots {
    std::vector<std::unique_ptr<GhostChannel>> channels;
    std::size_t opened_by_sender = 0;
    std::size_t opened_by_receiver = 0;
  };

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
  /// Enters `rank`'s next slot round as a collective of `kind` with the
  /// given contribution, and returns the round. Consults the fault plan
  /// first (maybe_kill, then inject_slot_fault), as one message to rank 0.
  std::uint64_t slot_arrive(int rank, FabricEventKind kind, Scalar value,
                            const void* data, std::size_t bytes);
  /// Rank 0: blocks until rank r has arrived at `round` and returns its
  /// line. Throws, in every build, when r entered another kind of
  /// collective than rank 0 did: the slot is shared, so a mismatch would
  /// otherwise mis-pair contributions in silence.
  const SlotLine& slot_arrival(int r, std::uint64_t round);
  /// Rank 0: publishes `round`'s result line and rings every other rank.
  void slot_publish(std::uint64_t round);
  /// Non-root ranks: blocks until rank 0 has published `round`.
  void slot_await_result(int rank, std::uint64_t round);
  /// Hang-report text for `rank`'s collective: the operation, the round
  /// and the ranks that have not arrived at it.
  std::string collective_context(int rank, std::uint64_t round) const;
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
  std::vector<std::unique_ptr<Doorbell>> doorbells_;
  std::vector<std::unique_ptr<FabricStats>> stats_;
  /// The collective slot: one arrival line per rank, then the result line,
  /// and the buffer rank 0 concatenates allgatherv contributions into.
  std::vector<SlotLine> arrivals_;
  SlotLine result_;
  std::vector<std::byte> gather_;
  std::mutex channels_mu_;
  std::map<std::pair<int, int>, ChannelSlots> channels_;
  std::atomic<bool> aborted_{false};
  std::atomic<int> first_failed_rank_{-1};
};

}  // namespace kestrel::par
