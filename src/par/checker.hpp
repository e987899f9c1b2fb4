#pragma once
// Fabric checker: a happens-before event recorder for the threads-as-ranks
// fabric (Kestrel Sentry, part 2).
//
// Every collective (barrier / allreduce / allgatherv) and every
// persistent-channel operation reports an event here when checking is
// enabled (debug builds, sanitizer presets, or KESTREL_FABRIC_CHECK=1). The
// checker maintains per-rank program-order state and a bounded global event
// trace, and fails loudly — with rank / op / peer context plus the recent
// trace — on the contract violations that the slot and channel protocols
// in comm.cpp cannot detect on their own:
//
//   * mismatched collectives: rank A enters barrier while rank B enters
//     allreduce at the same collective round, reported at the second
//     rank's entry with the trace (the slot's own kind check, always on,
//     catches it later, at rank 0);
//   * persistent-channel misuse (Kestrel Slipstream): re-arming an exchange
//     whose previous round was not fully drained, completing more receives
//     than were armed, or exiting Fabric::run with an armed round still
//     undrained — each of which would mean a ghost buffer read or written
//     at the wrong time;
//   * lost wakeups / deadlock: a rank blocked in a collective or a channel
//     wait past the hang timeout (see FabricOptions::hang_timeout_s in
//     comm.hpp).
//
// The checker is deliberately synchronous and mutex-protected: it is a
// debugging instrument, not a hot path. Release builds without a sanitizer
// preset never construct one.

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace kestrel::par {

enum class FabricEventKind : int {
  kBarrier = 0,
  kAllreduce,
  kAllgatherv,
  kChannelOpen,
  kChannelArm,
  kChannelSend,
  kChannelComplete,
  kRankExit,
};

const char* fabric_event_name(FabricEventKind kind);

/// One recorded fabric event. `peer` is the destination (channel-send) or
/// source (channel-complete); -1 for collectives. `seq` is the per-rank
/// program order, which is exactly the happens-before order within a rank.
struct FabricEvent {
  FabricEventKind kind = FabricEventKind::kBarrier;
  int rank = -1;
  int peer = -1;
  int tag = -1;
  std::uint64_t seq = 0;
};

class FabricChecker {
 public:
  explicit FabricChecker(int nranks);

  FabricChecker(const FabricChecker&) = delete;
  FabricChecker& operator=(const FabricChecker&) = delete;

  // ---- persistent channels (Kestrel Slipstream) ------------------------
  /// One endpoint registered `nsend` send and `nrecv` receive channels.
  void on_channel_open(int rank, int nsend, int nrecv);
  /// A receiver re-armed its exchange (`nrecv` receives posted). Fails if
  /// the previous round still has undrained completions.
  void on_channel_arm(int rank, int nrecv);
  void on_channel_send(int rank, int dest);
  /// A wait_any completed one receive from `source`. Fails if nothing is
  /// armed (completion without a matching arm).
  void on_channel_complete(int rank, int source);

  // ---- collectives -----------------------------------------------------
  /// `kind` must be kBarrier, kAllreduce or kAllgatherv. Verifies that all
  /// ranks run the same collective at the same per-rank collective round.
  void on_collective(int rank, FabricEventKind kind);

  // ---- lifecycle -------------------------------------------------------
  /// Called when a rank's function returns normally; fails if the rank
  /// still has armed persistent receives it never completed.
  void on_rank_exit(int rank);

  /// Human-readable tail of the event trace (most recent last).
  std::string trace(std::size_t max_events = 16) const;

 private:
  struct RankState {
    std::uint64_t next_seq = 0;
    std::uint64_t collective_round = 0;
    /// Armed persistent receives not yet completed by wait_any this round.
    std::uint64_t pending_completions = 0;
  };

  // Callers must hold mu_.
  void record(FabricEventKind kind, int rank, int peer, int tag);
  std::string trace_locked(std::size_t max_events) const;
  [[noreturn]] void fail(const std::string& msg) const;

  /// One collective round's kind, established by the first rank to reach
  /// it.
  struct CollectiveSlot {
    std::uint64_t round = ~std::uint64_t{0};  ///< none yet
    FabricEventKind kind = FabricEventKind::kBarrier;
    int first_rank = -1;
  };

  mutable std::mutex mu_;
  std::vector<RankState> ranks_;
  /// Round k lives in slot k % 2. Each rank records a round before it
  /// arrives, and a round completes only after every arrival, so no rank
  /// records round k+1 before every rank has recorded round k: two slots
  /// are exact, and the checker's memory does not grow with the run.
  CollectiveSlot collectives_[2];
  std::deque<FabricEvent> events_;  ///< bounded global trace
};

}  // namespace kestrel::par
