#include "layers.hpp"

#include <cmath>
#include <limits>

#include "base/rng.hpp"

namespace perfbench {

double gamma_k(std::int64_t k) {
  const double u = std::numeric_limits<double>::epsilon() / 2.0;
  const double ku = static_cast<double>(k) * u;
  return ku / (1.0 - ku);
}

std::int64_t spmv_bound_violations(const kestrel::mat::Csr& a,
                                   const Scalar* x, const Scalar* y) {
  std::int64_t bad = 0;
  const Index* rp = a.rowptr();
  const Index* ci = a.colidx();
  const Scalar* v = a.val();
  for (Index i = 0; i < a.rows(); ++i) {
    long double exact = 0.0L, abs_ax = 0.0L;
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      const long double term =
          static_cast<long double>(v[k]) * static_cast<long double>(x[ci[k]]);
      exact += term;
      abs_ax += std::fabs(term);
    }
    // The long double reference carries its own (k * 2^-64) error; a 1%
    // widening of gamma_k covers it for any row length this code sees.
    const long double bound =
        static_cast<long double>(gamma_k(rp[i + 1] - rp[i])) * 1.01L *
        abs_ax;
    if (std::fabs(static_cast<long double>(y[i]) - exact) > bound) ++bad;
  }
  return bad;
}

double residual_norm(const kestrel::mat::Csr& a, const Scalar* x,
                     const Scalar* b) {
  const Index* rp = a.rowptr();
  const Index* ci = a.colidx();
  const Scalar* v = a.val();
  long double sum = 0.0L;
  for (Index i = 0; i < a.rows(); ++i) {
    long double r = b[i];
    for (Index k = rp[i]; k < rp[i + 1]; ++k) {
      r -= static_cast<long double>(v[k]) * static_cast<long double>(x[ci[k]]);
    }
    sum += r * r;
  }
  return static_cast<double>(std::sqrt(sum));
}

double norm2(const Scalar* v, Index n) {
  long double s = 0.0L;
  for (Index i = 0; i < n; ++i) s += static_cast<long double>(v[i]) * v[i];
  return static_cast<double>(std::sqrt(s));
}

Vector seeded_initial_condition(const kestrel::app::GrayScott& gs,
                                std::uint64_t seed) {
  Vector u;
  gs.initial_condition(u);
  kestrel::Rng rng(seed);
  // interleaved (u, v) pairs; v > 0 only inside the seeded square
  for (Index i = 1; i < u.size(); i += 2) {
    if (u[i] <= 0.0) continue;
    const double d = 1e-3 * (rng.next_double() - 0.5);
    u[i] += d;
    u[i - 1] -= d;
  }
  return u;
}

}  // namespace perfbench
