#include "host.hpp"

#include <sys/resource.h>

#include <vector>

#include "common.hpp"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

double reference_loop() {
  // A dependent multiply-add chain (latency bound, core clock) ...
  double x = 1.0;
  for (int i = 0; i < 10000000; ++i) x = x * 0.9999999 + 1e-7;
  // ... and repeated sweeps over 4 MB (cache bandwidth).
  static std::vector<double> arr(512 * 1024, 1.0);
  double s = 0.0;
  for (int rep = 0; rep < 24; ++rep) {
    for (double v : arr) s += v;
  }
  return x + s;
}

}  // namespace

double host_calibration_ms(int reps) {
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    g_sink = g_sink + reference_loop();
    ms.push_back((now_s() - t0) * 1e3);
  }
  return median(ms);
}

double Triad::run() {
  const double s = 3.0;
  const std::size_t n = a_.size();
  double* __restrict a = a_.data();
  const double* __restrict b = b_.data();
  const double* __restrict c = c_.data();
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) a[i] = b[i] + s * c[i];
  const double dt = now_s() - t0;
  g_sink = g_sink + a[n / 2];
  return dt;
}

Rusage rusage_self() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Rusage r;
  r.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // kB on Linux
  r.minor_faults = static_cast<std::int64_t>(ru.ru_minflt);
  return r;
}

}  // namespace perfbench
