#include "common.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

namespace perfbench {

void Result::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

bool percentile_supported(std::size_t n, double p) {
  if (n == 0 || p < 0.0 || p > 100.0) return false;
  if (p <= 50.0) return true;
  // at least ten samples beyond the percentile
  return static_cast<double>(n) * (100.0 - p) / 100.0 >= 10.0 - 1e-9;
}

double percentile(std::vector<double> v, double p) {
  if (!percentile_supported(v.size(), p)) {
    throw std::invalid_argument(
        "percentile: p" + std::to_string(static_cast<int>(p)) + " from " +
        std::to_string(v.size()) + " samples (a tail percentile needs 10 "
        "samples beyond it)");
  }
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  return percentile(std::move(v), 50.0);
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
