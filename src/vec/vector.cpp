#include "vec/vector.hpp"

#include <cmath>

#include "base/error.hpp"

namespace kestrel {
namespace {

constexpr int kDotLanes = 16;

}  // namespace

Vector::Vector(std::initializer_list<Scalar> init)
    : data_(init.size()) {
  std::size_t i = 0;
  for (Scalar v : init) data_[i++] = v;
}

void Vector::copy_from(const Vector& src) {
  resize(src.size());
  const Scalar* s = src.data();
  Scalar* d = data();
  for (Index i = 0; i < size(); ++i) d[i] = s[i];
}

void Vector::axpy(Scalar alpha, const Vector& x) {
  KESTREL_CHECK(x.size() == size(), "axpy size mismatch");
  const Scalar* xs = x.data();
  Scalar* d = data();
  for (Index i = 0; i < size(); ++i) d[i] += alpha * xs[i];
}

void Vector::aypx(Scalar alpha, const Vector& x) {
  KESTREL_CHECK(x.size() == size(), "aypx size mismatch");
  const Scalar* xs = x.data();
  Scalar* d = data();
  for (Index i = 0; i < size(); ++i) d[i] = alpha * d[i] + xs[i];
}

void Vector::waxpby(Scalar alpha, const Vector& x, Scalar beta,
                    const Vector& y) {
  KESTREL_CHECK(x.size() == y.size(), "waxpby size mismatch");
  resize(x.size());
  const Scalar* xs = x.data();
  const Scalar* ys = y.data();
  Scalar* d = data();
  for (Index i = 0; i < size(); ++i) d[i] = alpha * xs[i] + beta * ys[i];
}

void Vector::maxpy(std::size_t count, const Scalar* alphas,
                   const Vector* const* xs) {
  for (std::size_t k = 0; k < count; ++k) {
    KESTREL_CHECK(xs[k]->size() == size(), "maxpy size mismatch");
  }
  Scalar* d = data();
  // process vectors in pairs: one pass of d per two inputs
  std::size_t k = 0;
  for (; k + 2 <= count; k += 2) {
    const Scalar a0 = alphas[k];
    const Scalar a1 = alphas[k + 1];
    const Scalar* x0 = xs[k]->data();
    const Scalar* x1 = xs[k + 1]->data();
    for (Index i = 0; i < size(); ++i) d[i] += a0 * x0[i] + a1 * x1[i];
  }
  if (k < count) {
    const Scalar a0 = alphas[k];
    const Scalar* x0 = xs[k]->data();
    for (Index i = 0; i < size(); ++i) d[i] += a0 * x0[i];
  }
}

void Vector::scale(Scalar alpha) {
  Scalar* d = data();
  for (Index i = 0; i < size(); ++i) d[i] *= alpha;
}

Scalar Vector::dot(const Vector& other) const {
  KESTREL_CHECK(other.size() == size(), "dot size mismatch");
  const Scalar* a = data();
  const Scalar* b = other.data();
  const Index n = size();
  const Index blocked = n - n % kDotLanes;
  // The order documented in vector.hpp. Each lane is its own accumulator,
  // so the compiler vectorizes the block loop without reassociating a sum.
  // With no full block the lanes fold to +0.0 and the tail loop is the
  // plain serial sum.
  Scalar lane[kDotLanes] = {};
  for (Index i = 0; i < blocked; i += kDotLanes) {
    for (int j = 0; j < kDotLanes; ++j) lane[j] += a[i + j] * b[i + j];
  }
  for (int half = kDotLanes / 2; half > 0; half /= 2) {
    for (int j = 0; j < half; ++j) lane[j] += lane[j + half];
  }
  Scalar sum = lane[0];
  for (Index i = blocked; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

Scalar Vector::norm2() const { return std::sqrt(dot(*this)); }

Scalar Vector::norm_inf() const {
  Scalar m = 0.0;
  for (Scalar v : *this) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace kestrel
