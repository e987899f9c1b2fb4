#pragma once
// Kestrel Scope exporters: cross-rank reduction through the par fabric plus
// the three output formats the -log_* options select —
//   * report():            PETSc -log_view style stage/event table with
//                          per-rank min/max/ratio columns,
//   * write_chrome_trace(): Chrome trace-event JSON (one Perfetto track per
//                          rank) from the spans recorded under -log_trace,
//   * write_json_metrics(): machine-readable dump (schema kMetricsSchema)
//                          that bench/ figure scripts consume.
// export_all() ties them to a LogConfig; on a fabric it is collective and
// only rank 0 writes.

#include <iosfwd>
#include <string>
#include <vector>

#include "prof/profiler.hpp"

namespace kestrel::par {
class Comm;
}

namespace kestrel::prof {

/// The metrics-JSON schema version every export path must declare (the
/// kestrel_lint prof-schema-version rule rejects hardcoded copies). v2 is
/// a strict superset of v1: all v1 fields are unchanged, v2 adds the
/// top-level "hwc" machine/capability block and the per-event measured
/// counter fields — so v1 consumers parse v2 documents untouched.
inline constexpr const char* kMetricsSchema = "kestrel-scope-metrics-v2";

/// One (stage, event) cell reduced across ranks.
struct ReducedRow {
  int stage = kMainStage;
  int event = -1;
  std::uint64_t calls_max = 0;
  double t_min = 0.0;
  double t_max = 0.0;
  double t_avg = 0.0;
  double ratio = 0.0;  ///< t_max / t_min; 0 when no rank recorded time
  double flops_total = 0.0;
  double bytes_total = 0.0;
  double messages_total = 0.0;
  double message_bytes_total = 0.0;
  double reductions_total = 0.0;
  // Kestrel Pulse measured counters, reduced across ranks (all zero when
  // hwc was off). Totals are sums; min/max/avg expose rank imbalance in
  // measured work the same way t_min/t_max/t_avg do for time.
  double cycles_total = 0.0;
  double cycles_min = 0.0;
  double cycles_max = 0.0;
  double cycles_avg = 0.0;
  double instructions_total = 0.0;
  double llc_misses_total = 0.0;
  double hwc_bytes_total = 0.0;
};

/// A trace span tagged with the rank that recorded it.
struct RankedSpan {
  int rank = 0;
  TraceSpan span;
};

/// Cross-rank reduced profile; identical contents on every rank after a
/// collective reduce(). Histories and metrics come from rank 0's profiler.
struct Reduced {
  int nranks = 1;
  double elapsed_max = 0.0;  ///< max over ranks of elapsed_seconds()
  std::vector<ReducedRow> rows;  ///< sorted by (stage, event)
  std::vector<RankedSpan> spans;
  std::uint64_t dropped_spans = 0;
  double messages_total = 0.0;
  double message_bytes_total = 0.0;
  double reductions_total = 0.0;
  std::map<std::string, std::vector<std::pair<double, double>>> histories;
  std::map<std::string, double> metrics;
};

/// Single-rank "reduction": min == max == avg, ratio 1.
Reduced reduce(const Profiler& p);
/// Collective across the fabric (every rank must call); event ids match
/// across ranks because the name registry is process-wide.
Reduced reduce(const Profiler& p, par::Comm& comm);

/// Prints the PETSc-style performance summary table.
void report(std::ostream& os, const Reduced& r);

/// Chrome trace-event JSON: pid 0, one tid (named track) per rank,
/// "X" complete events with microsecond timestamps relative to the
/// earliest span. Load in Perfetto / chrome://tracing.
void write_chrome_trace(std::ostream& os, const Reduced& r);

/// kMetricsSchema machine-readable metrics document (see the constant's
/// comment for the v1 -> v2 compatibility contract).
void write_json_metrics(std::ostream& os, const Reduced& r);

/// Runs the exporters the config asked for: reduces (collectively when
/// `comm` is non-null), then on rank 0 prints the table to stdout and/or
/// writes the trace/metrics files. No-op when cfg.any() is false.
void export_all(const LogConfig& cfg, const Profiler& p,
                par::Comm* comm = nullptr);

}  // namespace kestrel::prof
