#pragma once
// Ready-made LinearContext implementations: sequential (Matrix + optional
// Pc) and distributed (ParMatrix + Comm + optional local Pc).

#include "ksp/ksp.hpp"
#include "mat/matrix.hpp"
#include "par/parmat.hpp"
#include "pc/pc.hpp"

namespace kestrel::ksp {

/// One-rank context over any mat::Matrix.
class SeqContext final : public LinearContext {
 public:
  explicit SeqContext(const mat::Matrix& a, const pc::Pc* pc = nullptr)
      : a_(a), pc_(pc) {}

  Index local_size() const override { return a_.rows(); }
  std::int64_t operator_nnz() const override { return a_.nnz(); }
  void apply_operator(const Vector& x, Vector& y) override {
    a_.spmv(x, y);
  }
  const pc::Pc* preconditioner() const override { return pc_; }

 private:
  const mat::Matrix& a_;
  const pc::Pc* pc_;
};

/// Distributed context: operator application is the overlapped parallel
/// SpMV, dot products are allreduced. The preconditioner (if any) acts on
/// local blocks only — i.e. block-Jacobi across ranks, PETSc's default
/// composition.
class ParContext final : public LinearContext {
 public:
  ParContext(const par::ParMatrix& a, par::Comm& comm,
             const pc::Pc* local_pc = nullptr)
      : a_(a), comm_(comm), pc_(local_pc) {}

  Index local_size() const override { return a_.local_rows(); }
  std::int64_t operator_nnz() const override { return a_.local_nnz(); }
  void apply_operator(const Vector& x, Vector& y) override {
    a_.spmv_local(x.data(), y, comm_);
  }
  const pc::Pc* preconditioner() const override { return pc_; }
  Scalar dot(const Vector& a, const Vector& b) override {
    return comm_.allreduce(a.dot(b), par::Comm::ReduceOp::kSum);
  }

 private:
  const par::ParMatrix& a_;
  par::Comm& comm_;
  const pc::Pc* pc_;
};

}  // namespace kestrel::ksp
