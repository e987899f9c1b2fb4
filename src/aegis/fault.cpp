#include "aegis/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "base/error.hpp"
#include "prof/profiler.hpp"

namespace kestrel::aegis {

namespace {

/// splitmix64: the standard 64-bit finalizer-style mixer. Each message
/// tuple hashes to an independent-looking uniform value, so a probability
/// threshold on the hash gives deterministic per-message coin flips.
std::uint64_t mix64(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::uint64_t hash_message(std::uint64_t seed, int src, int dst, int tag,
                          std::uint64_t seq) {
  std::uint64_t h = mix64(seed);
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(src)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(dst)));
  h = mix64(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
  h = mix64(h ^ seq);
  return h;
}

/// Uniform [0,1) from a hash.
double unit(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_prob(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const double p = std::strtod(v.c_str(), &end);
  if (end != v.c_str() + v.size() || !(p >= 0.0) || p > 1.0) {
    throw OptionsError("aegis_faults", key + "=" + v,
                       "a probability in [0, 1]", __FILE__, __LINE__);
  }
  return p;
}

long parse_long(const std::string& key, const std::string& v) {
  char* end = nullptr;
  const long n = std::strtol(v.c_str(), &end, 10);
  if (end != v.c_str() + v.size() || v.empty()) {
    throw OptionsError("aegis_faults", key + "=" + v, "an integer", __FILE__,
                       __LINE__);
  }
  return n;
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "none";
    case FaultKind::kDrop:
      return "drop";
    case FaultKind::kDelay:
      return "delay";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kBitFlip:
      return "bitflip";
    case FaultKind::kKillRank:
      return "killrank";
  }
  return "?";
}

std::shared_ptr<const FaultPlan> FaultPlan::parse(const std::string& spec) {
  if (spec.empty()) return nullptr;
  auto plan = std::shared_ptr<FaultPlan>(new FaultPlan());
  plan->spec_ = spec;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string clause = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (clause.empty()) continue;
    const std::size_t eq = clause.find('=');
    if (eq == std::string::npos) {
      throw OptionsError("aegis_faults", clause, "a key=value clause",
                         __FILE__, __LINE__);
    }
    const std::string key = clause.substr(0, eq);
    const std::string val = clause.substr(eq + 1);
    if (key == "seed") {
      plan->seed_ = static_cast<std::uint64_t>(parse_long(key, val));
    } else if (key == "drop") {
      plan->drop_ = parse_prob(key, val);
    } else if (key == "delay") {
      plan->delay_ = parse_prob(key, val);
    } else if (key == "dup") {
      plan->dup_ = parse_prob(key, val);
    } else if (key == "reorder") {
      plan->reorder_ = parse_prob(key, val);
    } else if (key == "bitflip") {
      plan->bitflip_ = parse_prob(key, val);
    } else if (key == "delay_ms") {
      char* end = nullptr;
      const double ms = std::strtod(val.c_str(), &end);
      if (end != val.c_str() + val.size() || !(ms >= 0.0)) {
        throw OptionsError("aegis_faults", clause, "a duration in ms",
                           __FILE__, __LINE__);
      }
      plan->delay_ms_ = ms;
    } else if (key == "repeat") {
      const long n = parse_long(key, val);
      if (n < 1) {
        throw OptionsError("aegis_faults", clause, "repeat >= 1", __FILE__,
                           __LINE__);
      }
      plan->repeat_ = static_cast<int>(n);
    } else if (key == "max_retries") {
      const long n = parse_long(key, val);
      if (n < 0) {
        throw OptionsError("aegis_faults", clause, "max_retries >= 0",
                           __FILE__, __LINE__);
      }
      plan->max_retries_ = static_cast<int>(n);
    } else if (key == "kill") {
      const std::size_t at = val.find('@');
      if (at == std::string::npos) {
        throw OptionsError("aegis_faults", clause, "kill=RANK@CONSULT",
                           __FILE__, __LINE__);
      }
      plan->kill_rank_ =
          static_cast<int>(parse_long(key, val.substr(0, at)));
      plan->kill_at_ =
          static_cast<std::uint64_t>(parse_long(key, val.substr(at + 1)));
      if (plan->kill_rank_ < 0 || plan->kill_rank_ >= kMaxRanks ||
          plan->kill_at_ == 0) {
        throw OptionsError("aegis_faults", clause,
                           "kill=RANK@CONSULT with RANK >= 0, CONSULT >= 1",
                           __FILE__, __LINE__);
      }
    } else {
      throw OptionsError("aegis_faults", clause, "a known fault clause",
                         __FILE__, __LINE__);
    }
  }
  plan->consults_ = std::vector<std::atomic<std::uint64_t>>(kMaxRanks);
  return plan;
}

std::shared_ptr<const FaultPlan> FaultPlan::from_env() {
  const char* v = std::getenv("KESTREL_AEGIS");
  if (v == nullptr || *v == '\0') return nullptr;
  return parse(v);
}

FaultVerdict FaultPlan::message_fault(int src, int dst, int tag,
                                      std::uint64_t seq) const {
  const std::uint64_t h = hash_message(seed_, src, dst, tag, seq);
  const double u = unit(h);
  // The fault kinds partition [0, sum of probabilities): one message draws
  // at most one fault, and the per-kind rates match the spec exactly.
  double lo = 0.0;
  const struct {
    double p;
    FaultKind kind;
  } bands[] = {
      {drop_, FaultKind::kDrop},         {delay_, FaultKind::kDelay},
      {dup_, FaultKind::kDuplicate},     {reorder_, FaultKind::kReorder},
      {bitflip_, FaultKind::kBitFlip},
  };
  for (const auto& band : bands) {
    if (u < lo + band.p) return {band.kind, repeat_};
    lo += band.p;
  }
  return {FaultKind::kNone, 0};
}

bool FaultPlan::check_kill(int rank) const {
  if (kill_rank_ < 0 || rank != kill_rank_ || rank >= kMaxRanks) return false;
  const std::uint64_t n =
      consults_[static_cast<std::size_t>(rank)].fetch_add(
          1, std::memory_order_relaxed) +
      1;
  return n == kill_at_;
}

void AegisStats::reset() {
  faults_injected.store(0);
  retries.store(0);
  checksum_failures.store(0);
  delays.store(0);
  rank_kills.store(0);
  abft_verifications.store(0);
  abft_failures.store(0);
  abft_retries.store(0);
  rollbacks.store(0);
  solver_restarts.store(0);
  recoveries.store(0);
}

AegisStats& stats() {
  static AegisStats instance;
  return instance;
}

void publish_metrics(prof::Profiler& prof) {
  const AegisStats& st = stats();
  const struct {
    const char* name;
    std::uint64_t value;
  } counters[] = {
      {"aegis/faults_injected", st.faults_injected.load()},
      {"aegis/retries", st.retries.load()},
      {"aegis/checksum_failures", st.checksum_failures.load()},
      {"aegis/delays", st.delays.load()},
      {"aegis/rank_kills", st.rank_kills.load()},
      {"aegis/abft_verifications", st.abft_verifications.load()},
      {"aegis/abft_failures", st.abft_failures.load()},
      {"aegis/abft_retries", st.abft_retries.load()},
      {"aegis/rollbacks", st.rollbacks.load()},
      {"aegis/solver_restarts", st.solver_restarts.load()},
      {"aegis/recoveries", st.recoveries.load()},
  };
  for (const auto& c : counters) {
    prof.set_metric(c.name, static_cast<double>(c.value));
  }
}

std::uint64_t checksum_bytes(const void* data, std::size_t nbytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < nbytes; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

void backoff_sleep(int attempt) {
  // 50us, 100us, 200us, ... capped at ~6.4ms: long enough to model a real
  // retransmission delay, short enough that tests injecting thousands of
  // drops stay fast.
  const int shift = attempt < 7 ? attempt : 7;
  std::this_thread::sleep_for(std::chrono::microseconds(50L << shift));
}

}  // namespace kestrel::aegis
