#include "prof/profiler.hpp"

#include <atomic>
#include <cstdlib>
#include <thread>
#include <unordered_map>

#include "base/error.hpp"
#include "base/options.hpp"

namespace kestrel {

double wall_time() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace kestrel

namespace kestrel::prof {

namespace {

/// Locked name <-> id registry. Lookup is hash-map O(1) (the old EventLog
/// scanned linearly per lookup); call sites additionally cache the id in a
/// function-local static so the hot path never takes this lock.
class NameRegistry {
 public:
  int id_of(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = ids_.find(name);
    if (it != ids_.end()) return it->second;
    const int id = static_cast<int>(names_.size());
    names_.push_back(name);
    ids_.emplace(name, id);
    return id;
  }
  const std::string& name_of(int id) const {
    std::lock_guard<std::mutex> lock(mu_);
    KESTREL_CHECK(id >= 0 && id < static_cast<int>(names_.size()),
                  "prof: unknown registry id");
    return names_[static_cast<std::size_t>(id)];
  }
  int size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(names_.size());
  }

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, int> ids_;
  std::vector<std::string> names_;
};

NameRegistry& event_registry() {
  static NameRegistry reg;
  return reg;
}

NameRegistry& stage_registry() {
  static NameRegistry reg;
  static const int main_stage = reg.id_of("Main Stage");  // kMainStage == 0
  (void)main_stage;
  return reg;
}

std::atomic<bool> g_enabled{false};
std::atomic<bool> g_tracing{false};

thread_local Profiler* t_attached = nullptr;

/// Hard cap on recorded spans per profiler: long solves would otherwise
/// grow the trace without bound. Overflow is counted, never silent.
constexpr std::size_t kMaxSpans = 1u << 20;

}  // namespace

int registered_event(const std::string& name) {
  return event_registry().id_of(name);
}

int registered_stage(const std::string& name) {
  return stage_registry().id_of(name);
}

const std::string& event_name(int id) { return event_registry().name_of(id); }

const std::string& stage_name(int id) { return stage_registry().name_of(id); }

int num_registered_events() { return event_registry().size(); }

int num_registered_stages() { return stage_registry().size(); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool tracing() { return g_tracing.load(std::memory_order_relaxed); }

void set_tracing(bool on) { g_tracing.store(on, std::memory_order_relaxed); }

LogConfig configure(const Options& opts) {
  LogConfig cfg;
  // The environment supplies the defaults; an option given on the command
  // line wins.
  cfg.view = opts.get_bool("log_view", env_bool("KESTREL_LOG_VIEW", false));
  cfg.trace_path = opts.get_string("log_trace", "");
  cfg.json_path = opts.get_string("log_json", "");
  if (const char* v = std::getenv("KESTREL_LOG_TRACE")) {
    if (cfg.trace_path.empty() && *v != '\0') cfg.trace_path = v;
  }
  if (const char* v = std::getenv("KESTREL_LOG_JSON")) {
    if (cfg.json_path.empty() && *v != '\0') cfg.json_path = v;
  }
  cfg.hwc = opts.get_bool("log_hwc", env_bool("KESTREL_LOG_HWC", false));
  if (cfg.any()) set_enabled(true);
  if (!cfg.trace_path.empty()) set_tracing(true);
  // Kestrel Pulse: turn counter sampling on only if the host can deliver it;
  // otherwise enable_if_capable() warns once and the run keeps the modeled
  // bytes-only path. cfg.hwc reports what actually happened.
  if (cfg.hwc) cfg.hwc = hwc::enable_if_capable();
  return cfg;
}

// ---- Profiler ------------------------------------------------------------

Profiler::Profiler() : created_(wall_time()) {
  stage_stack_.push_back(kMainStage);
}

EventPerf& Profiler::cell(int stage, int event) {
  KESTREL_CHECK(stage >= 0 && event >= 0, "prof: bad stage/event id");
  if (static_cast<std::size_t>(stage) >= perf_.size()) {
    perf_.resize(static_cast<std::size_t>(stage) + 1);
  }
  auto& row = perf_[static_cast<std::size_t>(stage)];
  if (static_cast<std::size_t>(event) >= row.size()) {
    row.resize(static_cast<std::size_t>(event) + 1);
  }
  return row[static_cast<std::size_t>(event)];
}

std::vector<Profiler::Running>& Profiler::running_stack() {
  // Keyed per thread: Flock pool workers begin/end concurrently against the
  // rank profiler, and a shared LIFO would cross-pair their spans. The map
  // node outlives the job (stale empty stacks cost a few bytes until
  // reset()); the reference is only used under mu_.
  return running_[std::this_thread::get_id()];
}

void Profiler::begin(int event) {
  // Snapshot counters and clock before taking the lock: lock wait time must
  // not be attributed to the event.
  hwc::Reading hwc0;
  if (hwc::enabled()) hwc0 = hwc::read_thread();
  const double now = wall_time();
  std::lock_guard<std::mutex> lock(mu_);
  running_stack().push_back({event, now, hwc0});
}

void Profiler::end(int event, std::uint64_t flops, std::uint64_t bytes) {
  hwc::Reading hwc1;
  if (hwc::enabled()) hwc1 = hwc::read_thread();
  const double now = wall_time();
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Running>& running = running_stack();
  KESTREL_CHECK(!running.empty(), "prof: end('" + event_name(event) +
                                      "') with no running event");
  const Running top = running.back();
  if (top.event != event) {
    KESTREL_FAIL("prof: end('" + event_name(event) +
                 "') does not match the innermost running event '" +
                 event_name(top.event) + "' — begin/end must nest");
  }
  running.pop_back();
  const int stage = stage_stack_.back();
  EventPerf& p = cell(stage, event);
  p.seconds += now - top.t0;
  p.calls += 1;
  p.flops += flops;
  p.bytes += bytes;
  const hwc::Reading d = hwc::delta(top.hwc0, hwc1);
  p.cycles += d.cycles;
  p.instructions += d.instructions;
  p.llc_misses += d.llc_misses;
  p.hwc_bytes += d.dram_bytes;
  if (tracing()) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back({event, stage, top.t0, now,
                        static_cast<int>(running.size()), d.cycles,
                        d.instructions, d.llc_misses, d.dram_bytes});
    } else {
      ++dropped_spans_;
    }
  }
}

void Profiler::message(std::uint64_t count, std::uint64_t payload_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  total_messages_ += count;
  total_message_bytes_ += payload_bytes;
  static const int comm_event = registered_event("Comm");
  const std::vector<Running>& running = running_stack();
  const int event = running.empty() ? comm_event : running.back().event;
  EventPerf& p = cell(stage_stack_.back(), event);
  p.messages += count;
  p.message_bytes += payload_bytes;
}

void Profiler::reduction() {
  std::lock_guard<std::mutex> lock(mu_);
  total_reductions_ += 1;
  static const int comm_event = registered_event("Comm");
  const std::vector<Running>& running = running_stack();
  const int event = running.empty() ? comm_event : running.back().event;
  cell(stage_stack_.back(), event).reductions += 1;
}

void Profiler::stage_push(int stage) {
  std::lock_guard<std::mutex> lock(mu_);
  KESTREL_CHECK(stage >= 0 && stage < num_registered_stages(),
                "prof: stage_push with unregistered stage id");
  stage_stack_.push_back(stage);
}

void Profiler::stage_pop() {
  std::lock_guard<std::mutex> lock(mu_);
  KESTREL_CHECK(stage_stack_.size() > 1,
                "prof: stage_pop would pop the main stage");
  stage_stack_.pop_back();
}

int Profiler::current_stage() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stage_stack_.back();
}

void Profiler::record_history(const std::string& series, double x, double y) {
  std::lock_guard<std::mutex> lock(mu_);
  histories_[series].emplace_back(x, y);
}

void Profiler::set_metric(const std::string& name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  metrics_[name] = value;
}

EventPerf Profiler::perf_in(int stage, int event) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<std::size_t>(stage) >= perf_.size()) return {};
  const auto& row = perf_[static_cast<std::size_t>(stage)];
  if (static_cast<std::size_t>(event) >= row.size()) return {};
  return row[static_cast<std::size_t>(event)];
}

namespace {
template <class Get>
auto sum_over_stages(const std::vector<std::vector<EventPerf>>& perf,
                     int event, Get get) {
  decltype(get(EventPerf{})) acc{};
  for (const auto& row : perf) {
    if (static_cast<std::size_t>(event) < row.size()) {
      acc += get(row[static_cast<std::size_t>(event)]);
    }
  }
  return acc;
}
}  // namespace

double Profiler::seconds(int event) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_over_stages(perf_, event,
                         [](const EventPerf& p) { return p.seconds; });
}

std::uint64_t Profiler::calls(int event) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_over_stages(perf_, event,
                         [](const EventPerf& p) { return p.calls; });
}

std::uint64_t Profiler::flops(int event) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_over_stages(perf_, event,
                         [](const EventPerf& p) { return p.flops; });
}

std::uint64_t Profiler::bytes(int event) const {
  std::lock_guard<std::mutex> lock(mu_);
  return sum_over_stages(perf_, event,
                         [](const EventPerf& p) { return p.bytes; });
}

double Profiler::total_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  double t = 0.0;
  for (const auto& row : perf_) {
    for (const auto& p : row) t += p.seconds;
  }
  return t;
}

double Profiler::elapsed_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wall_time() - created_;
}

std::uint64_t Profiler::total_messages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_messages_;
}

std::uint64_t Profiler::total_message_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_message_bytes_;
}

std::uint64_t Profiler::total_reductions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_reductions_;
}

std::vector<PerfRow> Profiler::rows() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<PerfRow> out;
  for (std::size_t s = 0; s < perf_.size(); ++s) {
    const auto& row = perf_[s];
    for (std::size_t e = 0; e < row.size(); ++e) {
      const EventPerf& p = row[e];
      if (p.calls == 0 && p.messages == 0 && p.reductions == 0) continue;
      out.push_back({static_cast<int>(s), static_cast<int>(e), p});
    }
  }
  return out;
}

std::vector<TraceSpan> Profiler::trace() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::uint64_t Profiler::dropped_spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_spans_;
}

std::map<std::string, std::vector<std::pair<double, double>>>
Profiler::histories() const {
  std::lock_guard<std::mutex> lock(mu_);
  return histories_;
}

std::map<std::string, double> Profiler::metrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_;
}

void Profiler::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  perf_.clear();
  running_.clear();
  stage_stack_.assign(1, kMainStage);
  spans_.clear();
  dropped_spans_ = 0;
  total_messages_ = 0;
  total_message_bytes_ = 0;
  total_reductions_ = 0;
  histories_.clear();
  metrics_.clear();
  created_ = wall_time();
}

Profiler& Profiler::global() {
  static Profiler instance;
  return instance;
}

Profiler* attach(Profiler* p) {
  Profiler* prev = t_attached;
  t_attached = p;
  return prev;
}

Profiler* attached() { return t_attached; }

Profiler& current() {
  return t_attached != nullptr ? *t_attached : Profiler::global();
}

}  // namespace kestrel::prof
