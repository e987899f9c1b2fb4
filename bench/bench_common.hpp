#pragma once
// Shared core of the figure-reproduction benches: flags, workload builders,
// the format table, the one timing sampler, the metrics writer and table
// formatting. Every timed number a bench prints or exports is a median
// from sample(), quoted with its interquartile range.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "app/gray_scott.hpp"
#include "mat/convert.hpp"
#include "mat/csr.hpp"
#include "mat/matrix.hpp"
#include "prof/profiler.hpp"
#include "prof/report.hpp"
#include "vec/vector.hpp"

namespace kestrel::bench {

/// Smoke mode (--smoke): run one tiny iteration of everything so CI can
/// verify the bench binaries execute end to end. The numbers it prints are
/// wiring checks, not measurements.
inline bool& smoke_mode() {
  static bool on = false;
  return on;
}

/// Output path for the machine-readable metrics file (--json PATH);
/// empty when not requested. Only some benches emit one.
inline std::string& json_path() {
  static std::string path;
  return path;
}

/// Parses the flags shared by every figure bench: --smoke, --json PATH.
/// Unknown arguments are ignored so wrappers can pass extras through.
inline void parse_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke_mode() = true;
    } else if (arg == "--json" && i + 1 < argc) {
      json_path() = argv[++i];
    }
  }
}

/// Problem-size helper: the real size normally, a tiny one under --smoke.
inline Index scaled(Index full, Index tiny = 32) {
  return smoke_mode() ? tiny : full;
}

/// Repetition-floor helper: `full` normally, `tiny` under --smoke.
inline int scaled_reps(int full, int tiny = 1) {
  return smoke_mode() ? tiny : full;
}

/// Time-floor helper: `full` seconds normally, none under --smoke.
inline double scaled_seconds(double full) {
  return smoke_mode() ? 0.0 : full;
}

/// The paper's test matrix at a laptop-scale resolution: the Gray–Scott
/// Jacobian at the initial condition (10 nonzeros in every row).
inline mat::Csr gray_scott_matrix(Index n) {
  app::GrayScott gs(n);
  Vector u;
  gs.initial_condition(u);
  return gs.rhs_jacobian(u);
}

/// The input vector x every bench multiplies: values in [0.5, 0.75),
/// scattered by a multiplicative hash so no kernel sees a constant.
inline Vector input_vector(Index n) {
  Vector x(n);
  for (Index i = 0; i < n; ++i) {
    x[i] = 0.5 + 0.25 * ((i * 2654435761u) % 1024) / 1024.0;
  }
  return x;
}

/// The formats the multi-format benches sweep, in mat::convert's table
/// order. bcsr uses 2x2 blocks, the Gray–Scott dof coupling.
inline constexpr const char* kFormats[] = {"csr", "csrperm", "sell", "bcsr",
                                           "talon"};

/// Builds format `name` (one of kFormats) from `csr` at ISA tier `tier`.
inline std::shared_ptr<mat::Matrix> format(std::string_view name,
                                           const mat::Csr& csr,
                                           simd::IsaTier tier) {
  std::shared_ptr<mat::Matrix> m = mat::convert(csr, name, 2);
  m->set_tier(tier);
  return m;
}

/// A timing sample: the median and interquartile range, in seconds.
struct Sample {
  double median = 0.0;
  double iqr = 0.0;
};

/// Quantile q of an ascending, non-empty sample by linear interpolation
/// between the two nearest order statistics (Hyndman–Fan type 7, NumPy's
/// default): position q·(n−1).
inline double quantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] +
         (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

/// The one sampler: one untimed warm-up call of `fn`, then timed calls
/// until at least `min_reps` have run AND `min_seconds` have been spent.
template <class Fn>
Sample sample(Fn&& fn, int min_reps, double min_seconds) {
  fn();
  std::vector<double> times;
  double spent = 0.0;
  while (static_cast<int>(times.size()) < std::max(min_reps, 1) ||
         spent < min_seconds) {
    const double t0 = wall_time();
    fn();
    times.push_back(wall_time() - t0);
    spent += times.back();
  }
  std::sort(times.begin(), times.end());
  return {quantile(times, 0.5), quantile(times, 0.75) - quantile(times, 0.25)};
}

/// Samples y = A·x on input_vector(). The default floors drop to a single
/// call under --smoke; callers passing their own floors scale them.
inline Sample time_spmv(const mat::Matrix& a,
                        int min_reps = scaled_reps(20),
                        double min_seconds = scaled_seconds(0.15)) {
  const Vector x = input_vector(a.cols());
  Vector y(a.rows());
  return sample([&] { a.spmv(x.data(), y.data()); }, min_reps, min_seconds);
}

/// The sample's IQR as a percentage of its median, "±4.2%" right-aligned
/// in six columns (an "IQR" table column): the spread printed after every
/// median-derived table value.
inline std::string spread(const Sample& s) {
  char pct[24];
  std::snprintf(pct, sizeof(pct), "%.1f%%",
                s.median > 0.0 ? 100.0 * s.iqr / s.median : 0.0);
  const std::size_t len = std::char_traits<char>::length(pct);
  return std::string(len < 5 ? 5 - len : 0, ' ') + "±" + pct;
}

inline double gflops(const mat::Matrix& a, double seconds) {
  return 2.0 * static_cast<double>(a.nnz()) / seconds / 1e9;
}

inline double achieved_gbs(const mat::Matrix& a, double seconds) {
  return static_cast<double>(a.spmv_traffic_bytes()) / seconds / 1e9;
}

/// Writes `log`'s metrics document (prof::kMetricsSchema) to --json PATH;
/// a no-op without --json. Returns false, naming the path on stderr, when
/// the file cannot be written — the bench then exits nonzero.
inline bool write_metrics(const prof::Profiler& log) {
  if (json_path().empty()) return true;
  std::ofstream out(json_path());
  if (out) {
    prof::write_json_metrics(out, prof::reduce(log));
    out.close();
  }
  if (!out) {
    std::fprintf(stderr, "cannot write metrics to %s\n", json_path().c_str());
    return false;
  }
  std::printf("\nmetrics written to %s\n", json_path().c_str());
  return true;
}

inline void header(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

}  // namespace kestrel::bench
