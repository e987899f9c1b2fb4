#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace trace {

namespace {

/// One thread's spans; parents are local indices until collect().
struct ThreadBuf {
  int thread = 0;
  std::vector<Span> spans;
  std::vector<int> open;  ///< stack of open span indices
  std::int64_t op = -1;
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // guarded by g_mu
thread_local ThreadBuf* t_buf = nullptr;

ThreadBuf& buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    g_bufs.back()->thread = static_cast<int>(g_bufs.size()) - 1;
    g_bufs.back()->spans.reserve(1 << 12);
    t_buf = g_bufs.back().get();
  }
  return *t_buf;
}

}  // namespace

bool on() { return g_on.load(std::memory_order_relaxed); }

void set_on(bool enabled) { g_on.store(enabled, std::memory_order_relaxed); }

int begin(const char* name, std::int64_t bytes) {
  if (!on()) return -1;
  ThreadBuf& b = buf();
  const int parent = b.open.empty() ? -1 : b.open.back();
  Span s;
  s.name = name;
  s.bytes = bytes;
  s.parent = parent;
  s.op = parent >= 0 ? b.spans[static_cast<std::size_t>(parent)].op : b.op;
  s.thread = b.thread;
  const int token = static_cast<int>(b.spans.size());
  b.open.push_back(token);
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return token;
}

void end(int token) {
  if (token < 0) return;
  const std::int64_t t = now_ns();
  ThreadBuf& b = buf();
  b.spans[static_cast<std::size_t>(token)].end_ns = t;
  const auto it = std::find(b.open.rbegin(), b.open.rend(), token);
  if (it != b.open.rend()) b.open.erase(std::next(it).base());
}

int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t op, int parent_token) {
  if (!on()) return -1;
  ThreadBuf& b = buf();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.parent = parent_token;
  s.op = op;
  s.thread = b.thread;
  b.spans.push_back(s);
  return static_cast<int>(b.spans.size()) - 1;
}

void set_thread_op(std::int64_t op) { buf().op = op; }

std::vector<Span> collect() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<Span> out;
  for (const auto& b : g_bufs) {
    const auto base = static_cast<std::int64_t>(out.size());
    for (Span s : b->spans) {
      if (s.parent >= 0) s.parent += base;
      out.push_back(s);
    }
    b->spans.clear();
    b->open.clear();
  }
  return out;
}

}  // namespace trace

Accounting account(const std::vector<Span>& spans, double tol_pct,
                   std::int64_t slack_ns) {
  const std::size_t n = spans.size();
  std::vector<std::int64_t> child_ns(n, 0);
  std::vector<char> has_child(n, 0), bad(n, 0);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_ns[p] += s.end_ns - s.start_ns;
    has_child[p] = 1;
    if (s.start_ns < spans[p].start_ns - slack_ns ||
        s.end_ns > spans[p].end_ns + slack_ns) {
      bad[p] = 1;
    }
  }
  Accounting acc;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int64_t dur = spans[i].end_ns - spans[i].start_ns;
    if (has_child[i]) {
      ++acc.parents;
      const std::int64_t excess = child_ns[i] - dur;
      if (excess > 0 && dur > 0) {
        acc.max_error_pct = std::max(
            acc.max_error_pct, 100.0 * static_cast<double>(excess) /
                                   static_cast<double>(dur));
      }
      const double allowed =
          tol_pct / 100.0 * static_cast<double>(dur) +
          static_cast<double>(slack_ns);
      if (static_cast<double>(excess) > allowed) bad[i] = 1;
      if (bad[i]) ++acc.violations;
    }
  }
  return acc;
}

bool write_spans_json(const std::string& path,
                      const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::int64_t t0 = 0;
  for (const Span& s : spans) {
    if (t0 == 0 || s.start_ns < t0) t0 = s.start_ns;
  }
  std::fprintf(f, "{\"fields\": [\"name\", \"start_us\", \"dur_us\", "
                  "\"parent\", \"op\", \"thread\"],\n\"spans\": [");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f, "%s\n[\"%s\", %.3f, %.3f, %lld, %lld, %d]",
                 i == 0 ? "" : ",", s.name,
                 static_cast<double>(s.start_ns - t0) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.op), s.thread);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

LayerStats layer_stats(const std::vector<Span>& spans, const char* name) {
  LayerStats st;
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    st.durations_ms.push_back(s.ms());
    st.total_ms += s.ms();
    st.total_bytes += static_cast<double>(s.bytes);
  }
  return st;
}

double self_ms(const std::vector<Span>& spans, const char* name) {
  std::vector<double> child_ms(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += s.ms();
  }
  double total = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) == 0) {
      total += std::max(spans[i].ms() - child_ms[i], 0.0);
    }
  }
  return total;
}

namespace {

std::vector<double> per_op(const std::vector<Span>& spans, const char* name,
                           const std::vector<std::int64_t>& ops,
                           bool count) {
  std::map<std::int64_t, std::size_t> slot;
  for (std::size_t i = 0; i < ops.size(); ++i) slot[ops[i]] = i;
  std::vector<double> out(ops.size(), 0.0);
  for (const Span& s : spans) {
    if (std::strcmp(s.name, name) != 0) continue;
    const auto it = slot.find(s.op);
    if (it == slot.end()) continue;
    out[it->second] += count ? 1.0 : s.ms();
  }
  return out;
}

}  // namespace

std::vector<double> per_op_total_ms(const std::vector<Span>& spans,
                                    const char* name,
                                    const std::vector<std::int64_t>& ops) {
  return per_op(spans, name, ops, false);
}

std::vector<double> per_op_count(const std::vector<Span>& spans,
                                 const char* name,
                                 const std::vector<std::int64_t>& ops) {
  return per_op(spans, name, ops, true);
}

}  // namespace perfbench
