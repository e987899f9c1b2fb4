#pragma once
// Kestrel Aegis: deterministic fault injection + fault-tolerance counters.
//
// A FaultPlan is a seed-driven, purely functional description of which
// transport-level faults to inject where. The fabric consults it on every
// persistent-channel send and collective entry; the verdict for a given
// (src, dst, tag, seq) tuple depends only on the plan's seed, so a failing
// run replays bit-for-bit from its logged spec string. Both transports hold
// one round per slot and their round counters already order and
// deduplicate rounds, so drop, dup, reorder and bitflip all end in a
// retransmission with backoff.
//
// Spec grammar (comma-separated clauses, e.g. "seed=42,drop=0.05,kill=3@20"):
//   seed=N        hash seed (default 1)
//   drop=P        drop a message with probability P (sender retries with
//                 exponential backoff; recoverable)
//   delay=P       delay a message with probability P (delay_ms each)
//   dup=P         duplicate a message (the stale copy is discarded)
//   reorder=P     deliver a message out of order (re-sequenced)
//   bitflip=P     corrupt the payload in flight (the checksum mismatch is
//                 detected and the clean retransmission accepted)
//   kill=R@M      rank R throws RankFailure at its M-th plan consultation
//                 (models a rank dying mid-collective)
//   delay_ms=X    delay duration in milliseconds (default 1)
//   repeat=N      a faulted message stays faulty for N attempts (default 1);
//                 repeat > max_retries makes the fault unrecoverable
//   max_retries=N sender retry budget before declaring the link dead
//                 (default 8)
//
// The plan is wired in through par::FabricOptions (programmatically or via
// the KESTREL_AEGIS environment variable / the -aegis_faults option).

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace kestrel::prof {
class Profiler;
}

namespace kestrel::aegis {

enum class FaultKind {
  kNone,
  kDrop,
  kDelay,
  kDuplicate,
  kReorder,
  kBitFlip,
  kKillRank,
};

const char* fault_kind_name(FaultKind kind);

/// Decision for one message attempt. `repeat` is how many consecutive
/// attempts the fault afflicts before the link heals.
struct FaultVerdict {
  FaultKind kind = FaultKind::kNone;
  int repeat = 0;
};

class FaultPlan {
 public:
  /// Parses the spec grammar above; throws OptionsError (key "aegis_faults")
  /// on a malformed clause. Returns nullptr for an empty spec.
  static std::shared_ptr<const FaultPlan> parse(const std::string& spec);
  /// Plan from $KESTREL_AEGIS, or nullptr when unset/empty.
  static std::shared_ptr<const FaultPlan> from_env();

  /// Deterministic verdict for one message (channel round or collective
  /// arrival): depends only on (seed, src, dst, tag, seq).
  FaultVerdict message_fault(int src, int dst, int tag,
                             std::uint64_t seq) const;

  /// True exactly once: when `rank` reaches its configured kill point.
  /// Counts this rank's plan consultations as a side effect.
  bool check_kill(int rank) const;

  int max_retries() const { return max_retries_; }
  double delay_ms() const { return delay_ms_; }
  std::uint64_t seed() const { return seed_; }
  const std::string& spec() const { return spec_; }
  /// True when any message-level fault has nonzero probability (lets the
  /// transport skip checksum work for kill-only plans).
  bool corrupts_messages() const {
    return drop_ > 0 || delay_ > 0 || dup_ > 0 || reorder_ > 0 ||
           bitflip_ > 0;
  }

 private:
  FaultPlan() = default;

  std::string spec_;
  std::uint64_t seed_ = 1;
  double drop_ = 0.0;
  double delay_ = 0.0;
  double dup_ = 0.0;
  double reorder_ = 0.0;
  double bitflip_ = 0.0;
  double delay_ms_ = 1.0;
  int repeat_ = 1;
  int max_retries_ = 8;
  int kill_rank_ = -1;
  std::uint64_t kill_at_ = 0;
  /// Consultation counters, one per rank (single mutable piece of state;
  /// the plan itself is shared const across rank threads).
  static constexpr int kMaxRanks = 256;
  mutable std::vector<std::atomic<std::uint64_t>> consults_;
};

/// Process-wide fault-tolerance counters. Atomics: every rank thread (and
/// the ABFT verifier on any thread) bumps them concurrently.
struct AegisStats {
  std::atomic<std::uint64_t> faults_injected{0};
  std::atomic<std::uint64_t> retries{0};
  std::atomic<std::uint64_t> checksum_failures{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> rank_kills{0};
  std::atomic<std::uint64_t> abft_verifications{0};
  std::atomic<std::uint64_t> abft_failures{0};
  std::atomic<std::uint64_t> abft_retries{0};
  std::atomic<std::uint64_t> rollbacks{0};
  std::atomic<std::uint64_t> solver_restarts{0};
  std::atomic<std::uint64_t> recoveries{0};

  void reset();
};

AegisStats& stats();

/// Records every counter as an `aegis/...` metric on the given profiler
/// (kestrel-scope-metrics-v2 names; flows into -log_json via prof).
void publish_metrics(prof::Profiler& prof);

/// FNV-1a over a byte range: the transport payload checksum. Cheap, and
/// any single bit flip changes it.
std::uint64_t checksum_bytes(const void* data, std::size_t nbytes);

/// Exponential-backoff sleep for retry attempt `attempt` (0-based).
void backoff_sleep(int attempt);

}  // namespace kestrel::aegis
