#pragma once
// Decorators over the interfaces a caller of kestrel already owns
// (mat::Matrix, pc::Pc, ts::RhsFunction). Each forwards to the wrapped
// object and, while tracing is on, records one span per call, so the
// traced run times every call into the layer without touching the library.
// Also the reference checks the workloads verify outputs with.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "app/gray_scott.hpp"
#include "mat/csr.hpp"
#include "mat/matrix.hpp"
#include "pc/pc.hpp"
#include "trace.hpp"
#include "ts/theta.hpp"

namespace perfbench {

using kestrel::Index;
using kestrel::Scalar;
using kestrel::Vector;

/// mat::Matrix decorator: each spmv is a span named `span` carrying the
/// format's computed traffic bytes.
class TracedMatrix final : public kestrel::mat::Matrix {
 public:
  TracedMatrix(kestrel::mat::MatrixPtr inner, const char* span)
      : inner_(std::move(inner)),
        span_(span),
        bytes_(static_cast<std::int64_t>(inner_->spmv_traffic_bytes())) {}

  using kestrel::mat::Matrix::spmv;
  Index rows() const override { return inner_->rows(); }
  Index cols() const override { return inner_->cols(); }
  std::int64_t nnz() const override { return inner_->nnz(); }
  void spmv(const Scalar* x, Scalar* y) const override {
    const int tok = trace::begin(span_, bytes_);
    inner_->spmv(x, y);
    trace::end(tok);
  }
  void get_diagonal(Vector& d) const override { inner_->get_diagonal(d); }
  void abft_col_checksum(Vector& c) const override {
    inner_->abft_col_checksum(c);
  }
  std::string format_name() const override { return inner_->format_name(); }
  std::size_t storage_bytes() const override {
    return inner_->storage_bytes();
  }
  std::size_t spmv_traffic_bytes() const override {
    return inner_->spmv_traffic_bytes();
  }

 private:
  kestrel::mat::MatrixPtr inner_;
  const char* span_;
  std::int64_t bytes_;
};

/// pc::Pc decorator: each apply is a "pc.apply" span.
class TracedPc final : public kestrel::pc::Pc {
 public:
  explicit TracedPc(std::unique_ptr<kestrel::pc::Pc> inner)
      : inner_(std::move(inner)) {}
  void apply(const Vector& r, Vector& z) const override {
    trace::Scope s("pc.apply");
    inner_->apply(r, z);
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<kestrel::pc::Pc> inner_;
};

/// ts::RhsFunction decorator: "app.rhs" and "app.jacobian" spans.
class TracedRhs final : public kestrel::ts::RhsFunction {
 public:
  explicit TracedRhs(const kestrel::ts::RhsFunction& inner) : inner_(inner) {}
  Index size() const override { return inner_.size(); }
  void rhs(const Vector& u, Vector& f) const override {
    trace::Scope s("app.rhs");
    inner_.rhs(u, f);
  }
  kestrel::mat::Csr rhs_jacobian(const Vector& u) const override {
    trace::Scope s("app.jacobian");
    return inner_.rhs_jacobian(u);
  }

 private:
  const kestrel::ts::RhsFunction& inner_;
};

/// Unit roundoff of double and Higham's gamma_k = k u / (1 - k u): the
/// componentwise bound |fl(a.x) - a.x| <= gamma_k |a|.|x| of a length-k
/// inner product in any summation order, with or without FMA.
double gamma_k(std::int64_t k);

/// Rows i where |y_i - (A x)_i| > gamma_k (|A||x|)_i, k = row length, with
/// A x formed in long double by a plain row loop (the scalar-CSR
/// reference). Returns the number of violating rows.
std::int64_t spmv_bound_violations(const kestrel::mat::Csr& a,
                                   const Scalar* x, const Scalar* y);

/// ||b - A x||_2, formed in long double by the scalar-CSR reference.
double residual_norm(const kestrel::mat::Csr& a, const Scalar* x,
                     const Scalar* b);

double norm2(const Scalar* v, Index n);

/// The Gray–Scott initial condition with a seeded perturbation (amplitude
/// 1e-3, u and v in opposite directions) of the pattern-forming square.
Vector seeded_initial_condition(const kestrel::app::GrayScott& gs,
                                std::uint64_t seed);

}  // namespace perfbench
