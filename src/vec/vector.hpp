#pragma once
// Dense vector with cache-line-aligned storage and the BLAS-1 operations
// the Krylov solvers need. The elementwise loops are simple range code that
// the compiler autovectorizes. A reduction does not autovectorize: that
// would reassociate the sum, which the compiler does only under
// -ffast-math. So dot() spells out one fixed summation order with
// independent lanes the compiler can vectorize (see dot()).

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "base/aligned.hpp"
#include "base/types.hpp"

namespace kestrel {

class Vector {
 public:
  Vector() = default;
  explicit Vector(Index n) : data_(static_cast<std::size_t>(n), 0.0) {}
  Vector(Index n, Scalar fill) : data_(static_cast<std::size_t>(n), fill) {}
  Vector(std::initializer_list<Scalar> init);

  Index size() const { return static_cast<Index>(data_.size()); }
  Scalar* data() { return data_.data(); }
  const Scalar* data() const { return data_.data(); }

  Scalar& operator[](Index i) { return data_[static_cast<std::size_t>(i)]; }
  Scalar operator[](Index i) const {
    return data_[static_cast<std::size_t>(i)];
  }

  Scalar* begin() { return data_.begin(); }
  Scalar* end() { return data_.end(); }
  const Scalar* begin() const { return data_.begin(); }
  const Scalar* end() const { return data_.end(); }

  /// Discards contents.
  void resize(Index n) { data_.resize(static_cast<std::size_t>(n)); }

  void set(Scalar v) { data_.fill(v); }
  void copy_from(const Vector& src);

  /// this += alpha * x
  void axpy(Scalar alpha, const Vector& x);
  /// this = alpha * this + x
  void aypx(Scalar alpha, const Vector& x);
  /// this = alpha * x + beta * y
  void waxpby(Scalar alpha, const Vector& x, Scalar beta, const Vector& y);
  /// this += sum_k alphas[k] * xs[k] — the fused multi-vector update that
  /// dominates GMRES solution reconstruction (PETSc VecMAXPY); one pass
  /// over `this` instead of k.
  void maxpy(std::size_t count, const Scalar* alphas,
             const Vector* const* xs);
  void scale(Scalar alpha);

  /// Sums the products a[i]*b[i] in one fixed order. Over the floor(n/16)
  /// full blocks of 16, lane j (0-15) sums the products with i = j mod 16
  /// in index order. A pairwise tree folds the lanes: lane j += lane j+8,
  /// then j+4, j+2, j+1. The n mod 16 tail products are then added to lane
  /// 0 in index order, so a vector shorter than 16 is summed serially. The
  /// bits depend only on the two vectors, never on the -spmv_isa tier.
  /// Every product passes through at most k roundings,
  /// k = floor(n/16) + 4 + n mod 16 (k = n for n < 16), so
  /// |dot - exact| <= gamma_k * sum|a[i]*b[i]|, gamma_k = k*u / (1 - k*u)
  /// with u = 2^-53.
  Scalar dot(const Vector& other) const;
  /// sqrt(dot(*this)), bit for bit.
  Scalar norm2() const;
  Scalar norm_inf() const;

  /// Convenience conversion for tests.
  std::vector<Scalar> to_std() const {
    return std::vector<Scalar>(begin(), end());
  }

 private:
  AlignedBuffer<Scalar> data_;
};

}  // namespace kestrel
