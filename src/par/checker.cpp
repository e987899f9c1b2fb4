#include "par/checker.hpp"

#include <sstream>

#include "base/error.hpp"

namespace kestrel::par {

namespace {
constexpr std::size_t kMaxTraceEvents = 512;
}  // namespace

const char* fabric_event_name(FabricEventKind kind) {
  switch (kind) {
    case FabricEventKind::kBarrier:
      return "barrier";
    case FabricEventKind::kAllreduce:
      return "allreduce";
    case FabricEventKind::kAllgatherv:
      return "allgatherv";
    case FabricEventKind::kChannelOpen:
      return "channel-open";
    case FabricEventKind::kChannelArm:
      return "channel-arm";
    case FabricEventKind::kChannelSend:
      return "channel-send";
    case FabricEventKind::kChannelComplete:
      return "channel-complete";
    case FabricEventKind::kRankExit:
      return "rank-exit";
  }
  return "?";
}

FabricChecker::FabricChecker(int nranks)
    : ranks_(static_cast<std::size_t>(nranks)) {}

void FabricChecker::record(FabricEventKind kind, int rank, int peer,
                           int tag) {
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  events_.push_back(FabricEvent{kind, rank, peer, tag, rs.next_seq++});
  if (events_.size() > kMaxTraceEvents) events_.pop_front();
}

std::string FabricChecker::trace_locked(std::size_t max_events) const {
  std::ostringstream os;
  const std::size_t n = events_.size();
  const std::size_t begin = n > max_events ? n - max_events : 0;
  os << "recent fabric events (oldest first";
  if (begin > 0) os << ", " << begin << " earlier omitted";
  os << "):";
  for (std::size_t i = begin; i < n; ++i) {
    const FabricEvent& e = events_[i];
    os << "\n  rank " << e.rank << " #" << e.seq << " "
       << fabric_event_name(e.kind);
    if (e.kind == FabricEventKind::kChannelOpen) {
      os << " nsend=" << e.peer << " nrecv=" << e.tag;
      continue;
    }
    if (e.kind == FabricEventKind::kChannelArm) {
      os << " nrecv=" << e.tag;
      continue;
    }
    if (e.peer >= 0) {
      os << (e.kind == FabricEventKind::kChannelSend ? " dest=" : " source=")
         << e.peer;
    }
    if (e.tag >= 0) os << " tag=" << e.tag;
  }
  return os.str();
}

std::string FabricChecker::trace(std::size_t max_events) const {
  std::lock_guard<std::mutex> lock(mu_);
  return trace_locked(max_events);
}

void FabricChecker::fail(const std::string& msg) const {
  // mu_ is held by the caller; the throw unwinds through the lock_guard.
  KESTREL_FAIL("fabric checker: " + msg + "\n" + trace_locked(16));
}

void FabricChecker::on_channel_open(int rank, int nsend, int nrecv) {
  std::lock_guard<std::mutex> lock(mu_);
  // peer/tag carry the channel counts so the trace shows exchange shapes.
  record(FabricEventKind::kChannelOpen, rank, nsend, nrecv);
}

void FabricChecker::on_channel_arm(int rank, int nrecv) {
  std::lock_guard<std::mutex> lock(mu_);
  record(FabricEventKind::kChannelArm, rank, -1, nrecv);
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.pending_completions != 0) {
    std::ostringstream os;
    os << "rank " << rank << " re-armed a persistent exchange with "
       << rs.pending_completions
       << " undrained receive(s) from the previous round — a sender could "
          "overwrite ghost data the rank has not consumed yet";
    fail(os.str());
  }
  rs.pending_completions = static_cast<std::uint64_t>(nrecv);
}

void FabricChecker::on_channel_send(int rank, int dest) {
  std::lock_guard<std::mutex> lock(mu_);
  record(FabricEventKind::kChannelSend, rank, dest, -1);
}

void FabricChecker::on_channel_complete(int rank, int source) {
  std::lock_guard<std::mutex> lock(mu_);
  record(FabricEventKind::kChannelComplete, rank, source, -1);
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.pending_completions == 0) {
    std::ostringstream os;
    os << "rank " << rank << " completed a persistent receive (source="
       << source << ") with no armed round — wait_any called more times "
          "than receives were posted";
    fail(os.str());
  }
  --rs.pending_completions;
}

void FabricChecker::on_collective(int rank, FabricEventKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  record(kind, rank, -1, -1);
  RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  const std::uint64_t round = rs.collective_round++;
  if (round >= collective_kind_.size()) {
    collective_kind_.push_back(kind);
    collective_first_rank_.push_back(rank);
    return;
  }
  const FabricEventKind expected =
      collective_kind_[static_cast<std::size_t>(round)];
  if (expected != kind) {
    std::ostringstream os;
    os << "mismatched collectives at round " << round << ": rank "
       << collective_first_rank_[static_cast<std::size_t>(round)]
       << " entered " << fabric_event_name(expected) << " while rank "
       << rank << " entered " << fabric_event_name(kind);
    fail(os.str());
  }
}

void FabricChecker::on_rank_exit(int rank) {
  std::lock_guard<std::mutex> lock(mu_);
  record(FabricEventKind::kRankExit, rank, -1, -1);
  const RankState& rs = ranks_[static_cast<std::size_t>(rank)];
  if (rs.pending_completions != 0) {
    std::ostringstream os;
    os << "rank " << rank << " exited Fabric::run with "
       << rs.pending_completions
       << " armed persistent receive(s) never completed";
    fail(os.str());
  }
}

}  // namespace kestrel::par
