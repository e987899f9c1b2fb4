#include "prof/hwc.hpp"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#ifdef __linux__
#include <dirent.h>
#include <fcntl.h>
#include <linux/perf_event.h>
#include <sys/ioctl.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include "base/options.hpp"

namespace kestrel::prof::hwc {

// ---- pure counter math ----------------------------------------------------

std::uint64_t scale_multiplexed(std::uint64_t raw, std::uint64_t time_enabled,
                                std::uint64_t time_running) {
  if (time_running == 0) return 0;  // group never scheduled: nothing counted
  if (time_running >= time_enabled) return raw;  // no multiplexing
  // Extrapolate in long double: enabled/running are nanoseconds and raw can
  // be ~1e10+, so the u64*u64 product would overflow before dividing.
  const long double scaled = static_cast<long double>(raw) *
                             static_cast<long double>(time_enabled) /
                             static_cast<long double>(time_running);
  return static_cast<std::uint64_t>(scaled);
}

std::uint64_t wrap_delta(std::uint64_t before, std::uint64_t now) {
  return now - before;  // unsigned arithmetic wraps exactly as the counter
}

std::uint64_t llc_fallback_bytes(std::uint64_t llc_misses) {
  return llc_misses * kCacheLineBytes;
}

const char* source_name(Source s) {
  switch (s) {
    case Source::kNone:
      return "none";
    case Source::kLlcFallback:
      return "llc-fallback";
    case Source::kUncoreImc:
      return "uncore-imc";
    case Source::kSoftwareDebug:
      return "software-debug";
  }
  return "?";
}

// ---- Group ---------------------------------------------------------------

#ifdef __linux__

namespace {

long perf_event_open_syscall(perf_event_attr* attr, pid_t pid, int cpu,
                             int group_fd, unsigned long flags) {
  return syscall(SYS_perf_event_open, attr, pid, cpu, group_fd, flags);
}

}  // namespace

Group::~Group() { close(); }

Group::Group(Group&& other) noexcept
    : fds_(std::move(other.fds_)), error_(std::move(other.error_)) {
  other.fds_.clear();
}

Group& Group::operator=(Group&& other) noexcept {
  if (this != &other) {
    close();
    fds_ = std::move(other.fds_);
    error_ = std::move(other.error_);
    other.fds_.clear();
  }
  return *this;
}

void Group::close() {
  for (const int fd : fds_) ::close(fd);
  fds_.clear();
}

bool Group::open(const std::vector<CounterSpec>& specs, int pid, int cpu) {
  close();
  error_.clear();
  if (specs.empty()) {
    error_ = "empty counter spec";
    return false;
  }
  for (const CounterSpec& spec : specs) {
    perf_event_attr attr;
    std::memset(&attr, 0, sizeof(attr));
    attr.size = sizeof(attr);
    attr.type = spec.type;
    attr.config = spec.config;
    // Leader reads the whole group in one snapshot, with the enabled /
    // running times the multiplexing correction needs.
    attr.read_format = PERF_FORMAT_GROUP | PERF_FORMAT_TOTAL_TIME_ENABLED |
                       PERF_FORMAT_TOTAL_TIME_RUNNING;
    // Start disabled; one group-wide ioctl below enables every member at
    // the same instant so the first span's delta is consistent.
    attr.disabled = fds_.empty() ? 1 : 0;
    attr.exclude_kernel = 1;
    attr.exclude_hv = 1;
    const int group_fd = fds_.empty() ? -1 : fds_.front();
    const long fd = perf_event_open_syscall(&attr, pid, cpu, group_fd, 0);
    if (fd < 0) {
      error_ = "perf_event_open(type=" + std::to_string(spec.type) +
               ",config=" + std::to_string(spec.config) +
               "): " + std::strerror(errno);
      close();
      return false;
    }
    fds_.push_back(static_cast<int>(fd));
  }
  if (ioctl(fds_.front(), PERF_EVENT_IOC_RESET, PERF_IOC_FLAG_GROUP) != 0 ||
      ioctl(fds_.front(), PERF_EVENT_IOC_ENABLE, PERF_IOC_FLAG_GROUP) != 0) {
    error_ = std::string("PERF_EVENT_IOC_ENABLE: ") + std::strerror(errno);
    close();
    return false;
  }
  return true;
}

bool Group::sample(Sample* out) const {
  if (fds_.empty()) return false;
  // Group read layout (PERF_FORMAT_GROUP + both times, no PERF_FORMAT_ID):
  //   u64 nr; u64 time_enabled; u64 time_running; u64 value[nr];
  const std::size_t n = fds_.size();
  std::vector<std::uint64_t> buf(3 + n);
  const ssize_t want =
      static_cast<ssize_t>(buf.size() * sizeof(std::uint64_t));
  const ssize_t got = ::read(fds_.front(), buf.data(),
                             static_cast<std::size_t>(want));
  if (got < want || buf[0] != n) return false;
  out->time_enabled = buf[1];
  out->time_running = buf[2];
  out->values.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out->values[i] = scale_multiplexed(buf[3 + i], buf[1], buf[2]);
  }
  return true;
}

#else  // !__linux__: stub Group so the library builds anywhere

Group::~Group() = default;
Group::Group(Group&&) noexcept = default;
Group& Group::operator=(Group&&) noexcept = default;
void Group::close() {}
bool Group::open(const std::vector<CounterSpec>&, int, int) {
  error_ = "perf_event requires Linux";
  return false;
}
bool Group::sample(Sample*) const { return false; }

#endif  // __linux__

// ---- capability probing ---------------------------------------------------

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_source{static_cast<int>(Source::kNone)};

std::vector<CounterSpec> core_specs() {
  return {{kTypeHardware, kHwCycles},
          {kTypeHardware, kHwInstructions},
          {kTypeHardware, kHwCacheMisses}};
}

/// Software stand-ins for VMs/CI (KESTREL_HWC_SOFTWARE=1): task-clock ns
/// fill the cycles/instructions slots, page faults the LLC-miss slot. The
/// numbers are not cycle counts — the point is that the whole snapshot /
/// delta / reduce / export pipeline runs against real grouped fd reads.
std::vector<CounterSpec> software_specs() {
  return {{kTypeSoftware, kSwTaskClock},
          {kTypeSoftware, kSwTaskClock},
          {kTypeSoftware, kSwPageFaults}};
}

#ifdef __linux__

int read_paranoid() {
  FILE* f = std::fopen("/proc/sys/kernel/perf_event_paranoid", "re");
  if (f == nullptr) return -1;
  int v = -1;
  const int rc = std::fscanf(f, "%d", &v);
  std::fclose(f);
  return rc == 1 ? v : -1;
}

/// Parses "event=0x04,umask=0x03" (the standard IMC cas_count_read alias)
/// into a raw config word. Returns false on any unexpected token.
bool parse_imc_config(const char* text, std::uint64_t* config) {
  std::uint64_t event = 0;
  std::uint64_t umask = 0;
  bool have_event = false;
  const char* p = text;
  while (*p != '\0' && *p != '\n') {
    char key[16];
    unsigned long long value = 0;
    int consumed = 0;
    if (std::sscanf(p, "%15[a-z_]=%llx%n", key, &value, &consumed) != 2) {
      return false;
    }
    if (std::strcmp(key, "event") == 0) {
      event = value;
      have_event = true;
    } else if (std::strcmp(key, "umask") == 0) {
      umask = value;
    }
    p += consumed;
    if (*p == ',') ++p;
  }
  if (!have_event) return false;
  *config = event | (umask << 8);
  return true;
}

/// Finds the uncore IMC PMUs and their cas_count_read encoding. Returns
/// one spec per IMC box (each is opened system-wide on cpu 0 and summed).
std::vector<CounterSpec> probe_uncore_imc() {
  std::vector<CounterSpec> specs;
  DIR* dir = opendir("/sys/bus/event_source/devices");
  if (dir == nullptr) return specs;
  while (dirent* entry = readdir(dir)) {
    if (std::strncmp(entry->d_name, "uncore_imc", 10) != 0) continue;
    const std::string base =
        std::string("/sys/bus/event_source/devices/") + entry->d_name;
    std::uint32_t type = 0;
    {
      FILE* f = std::fopen((base + "/type").c_str(), "re");
      if (f == nullptr) continue;
      unsigned v = 0;
      const int rc = std::fscanf(f, "%u", &v);
      std::fclose(f);
      if (rc != 1) continue;
      type = v;
    }
    std::uint64_t config = 0;
    {
      FILE* f = std::fopen((base + "/events/cas_count_read").c_str(), "re");
      if (f == nullptr) continue;
      char text[128] = {0};
      const std::size_t got = std::fread(text, 1, sizeof(text) - 1, f);
      std::fclose(f);
      text[got] = '\0';
      if (!parse_imc_config(text, &config)) continue;
    }
    specs.push_back({type, config});
  }
  closedir(dir);
  return specs;
}

#else

int read_paranoid() { return -1; }
std::vector<CounterSpec> probe_uncore_imc() { return {}; }

#endif  // __linux__

Capability probe_capability() {
  Capability cap;
  cap.paranoid = read_paranoid();
#ifndef __linux__
  cap.detail = "perf_event requires Linux";
  return cap;
#else
  if (cap.paranoid < 0) {
    cap.detail = "no /proc/sys/kernel/perf_event_paranoid (kernel built "
                 "without perf_event, or masked by the container)";
    return cap;
  }
  {
    Group probe;
    cap.counters = probe.open(core_specs());
    if (!cap.counters) {
      cap.detail = probe.error() + " (perf_event_paranoid=" +
                   std::to_string(cap.paranoid) +
                   "; typical causes: no PMU in this VM/container, or "
                   "paranoid level blocks unprivileged counters)";
    }
  }
  {
    Group probe;
    cap.sw_counters = probe.open(software_specs());
  }
  if (cap.counters) {
    const std::vector<CounterSpec> imc = probe_uncore_imc();
    if (!imc.empty()) {
      // Uncore PMUs are per-socket and cpu-scoped: open system-wide on
      // cpu 0 to confirm permission (requires paranoid <= 0 or root).
      Group probe;
      cap.dram_uncore = probe.open({imc.front()}, /*pid=*/-1, /*cpu=*/0);
    }
  }
  return cap;
#endif
}

}  // namespace

const Capability& capability() {
  static const Capability cap = probe_capability();
  return cap;
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
  if (!on) g_source.store(static_cast<int>(Source::kNone),
                          std::memory_order_relaxed);
}

Source source() {
  return static_cast<Source>(g_source.load(std::memory_order_relaxed));
}

namespace {

std::once_flag g_warned_once;

}  // namespace

bool enable_if_capable() {
  const Capability& cap = capability();
  if (env_bool("KESTREL_HWC_SOFTWARE", false) && cap.sw_counters) {
    g_source.store(static_cast<int>(Source::kSoftwareDebug),
                   std::memory_order_relaxed);
    g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }
  if (cap.counters) {
    g_source.store(static_cast<int>(cap.dram_uncore ? Source::kUncoreImc
                                                    : Source::kLlcFallback),
                   std::memory_order_relaxed);
    g_enabled.store(true, std::memory_order_relaxed);
    return true;
  }
  std::call_once(g_warned_once, [&cap] {
    std::fprintf(stderr,
                 "kestrel: [hwc] hardware counters unavailable: %s; "
                 "continuing with modeled bytes only\n",
                 cap.detail.c_str());
  });
  return false;
}

// ---- per-thread sampler ---------------------------------------------------

namespace {

#ifdef __linux__

/// One system-wide uncore reader shared by every thread (IMC counters are
/// socket-scoped, not thread-scoped). Guarded by a mutex: reads are rare
/// (two per profiled span) and cheap next to the syscall itself.
class UncoreReader {
 public:
  /// Sum of CAS-read counts x 64 over all IMC boxes; 0 when unavailable.
  std::uint64_t read_bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    if (!tried_) {
      tried_ = true;
      for (const CounterSpec& spec : probe_uncore_imc()) {
        Group g;
        if (g.open({spec}, /*pid=*/-1, /*cpu=*/0)) {
          groups_.push_back(std::move(g));
        }
      }
    }
    std::uint64_t cas = 0;
    for (const Group& g : groups_) {
      Group::Sample s;
      if (g.sample(&s) && !s.values.empty()) cas += s.values[0];
    }
    return cas * kCacheLineBytes;
  }

 private:
  std::mutex mu_;
  bool tried_ = false;
  std::vector<Group> groups_;
};

UncoreReader& uncore_reader() {
  static UncoreReader reader;
  return reader;
}

#endif  // __linux__

struct ThreadSampler {
  Group group;
  Source opened_for = Source::kNone;
};

thread_local ThreadSampler t_sampler;

}  // namespace

Reading read_thread() {
  Reading r;
  if (!enabled()) return r;
  const Source src = source();
  ThreadSampler& s = t_sampler;
  if (s.opened_for != src) {
    // First use on this thread (or the source changed): (re)open lazily so
    // every fabric rank thread gets its own group without registration.
    s.group.close();
    s.opened_for = src;
    const std::vector<CounterSpec> specs =
        src == Source::kSoftwareDebug ? software_specs() : core_specs();
    s.group.open(specs);
  }
  if (!s.group.valid()) return r;
  Group::Sample smp;
  if (!s.group.sample(&smp) || smp.values.size() < 3) return r;
  r.valid = true;
  r.cycles = smp.values[0];
  r.instructions = smp.values[1];
  r.llc_misses = smp.values[2];
  r.time_enabled = smp.time_enabled;
  r.time_running = smp.time_running;
#ifdef __linux__
  if (src == Source::kUncoreImc) {
    r.dram_bytes = uncore_reader().read_bytes();
    return r;
  }
#endif
  r.dram_bytes = llc_fallback_bytes(r.llc_misses);
  return r;
}

Reading delta(const Reading& before, const Reading& now) {
  Reading d;
  if (!before.valid || !now.valid) return d;
  d.valid = true;
  d.cycles = wrap_delta(before.cycles, now.cycles);
  d.instructions = wrap_delta(before.instructions, now.instructions);
  d.llc_misses = wrap_delta(before.llc_misses, now.llc_misses);
  d.dram_bytes = wrap_delta(before.dram_bytes, now.dram_bytes);
  d.time_enabled = wrap_delta(before.time_enabled, now.time_enabled);
  d.time_running = wrap_delta(before.time_running, now.time_running);
  return d;
}

}  // namespace kestrel::prof::hwc
