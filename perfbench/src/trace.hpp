#pragma once
// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files around the calls it
// makes into each library layer (decorators, factory closures, callbacks).
// Each thread appends to its own buffer, so recording takes no lock; the
// buffers are flattened after the measured phase, when every recording
// thread has stopped. A span carries its name, start and end, the span
// that caused it and the id of the operation (episode, solve, request) it
// belongs to.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

std::int64_t now_ns();

struct Span {
  const char* name = "";  ///< static string
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;  ///< index into the collected list; -1 = root
  std::int64_t op = -1;      ///< operation id; -1 = none
  std::int64_t bytes = 0;    ///< computed bytes the call moved, if any
  int thread = 0;

  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

namespace trace {

/// Recording switch; off by default. Every recording call is a no-op while
/// it is off.
bool on();
void set_on(bool enabled);

/// Opens a span on this thread under the innermost open span. The op id
/// is inherited from that span, else the thread's current op. Returns a
/// token for end(), or -1 when recording is off.
int begin(const char* name, std::int64_t bytes = 0);
void end(int token);

/// Records an already finished span on this thread under `parent_token`
/// (a token from begin() or record() on this thread; -1 = root). Returns
/// its token, or -1 when recording is off.
int record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t op, int parent_token = -1);

/// Sets the op id that root spans opened on this thread inherit.
void set_thread_op(std::int64_t op);

/// Flattens every thread's buffer into one list with global parent
/// indices, and empties the buffers. Call only while no thread records.
std::vector<Span> collect();

/// RAII begin/end.
class Scope {
 public:
  explicit Scope(const char* name) : token_(begin(name)) {}
  ~Scope() { end(token_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int token_;
};

}  // namespace trace

/// Time accounting over a span forest: each parent's duration equals the
/// sum of its children plus an unattributed remainder. The remainder is
/// negative only when children overlap or leak out of their parent, which
/// is the bookkeeping error this checks for.
struct Accounting {
  std::int64_t parents = 0;     ///< spans with at least one child
  std::int64_t violations = 0;  ///< parents off by more than the tolerance
  double max_error_pct = 0.0;   ///< worst excess of children over parent
};

/// A parent violates the invariant when its children sum to more than
/// (1 + tol_pct/100) of it, plus `slack_ns` of clock granularity, or when a
/// child starts before or ends after it by more than that slack.
Accounting account(const std::vector<Span>& spans, double tol_pct,
                   std::int64_t slack_ns);

/// Writes spans as JSON: {"spans": [[name, start_us, dur_us, parent, op,
/// thread], ...]} with times relative to the earliest span.
bool write_spans_json(const std::string& path,
                      const std::vector<Span>& spans);

/// Self time of every span named `name`: its duration minus the time its
/// children cover, summed, in ms.
double self_ms(const std::vector<Span>& spans, const char* name);

/// Per-name aggregation of a span list.
struct LayerStats {
  std::vector<double> durations_ms;  ///< every span of that name
  double total_ms = 0.0;
  double total_bytes = 0.0;
};

/// Every span named `name`.
LayerStats layer_stats(const std::vector<Span>& spans, const char* name);

/// Sum of durations of spans named `name` per op id, over `ops`.
std::vector<double> per_op_total_ms(const std::vector<Span>& spans,
                                    const char* name,
                                    const std::vector<std::int64_t>& ops);
std::vector<double> per_op_count(const std::vector<Span>& spans,
                                 const char* name,
                                 const std::vector<std::int64_t>& ops);

}  // namespace perfbench
