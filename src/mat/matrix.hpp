#pragma once
// Abstract sparse matrix interface. Concrete formats (Csr, CsrPerm, Sell,
// Bcsr, Dense) implement SpMV through the ISA-dispatched kernels; solvers
// and preconditioners program against this interface so the matrix format
// is swappable with one option, exactly like PETSc's -mat_type.

#include <cstdint>
#include <memory>
#include <string>

#include "base/error.hpp"
#include "base/types.hpp"
#include "mat/slim.hpp"
#include "simd/isa.hpp"
#include "vec/vector.hpp"

namespace kestrel::mat {

class Matrix {
 public:
  virtual ~Matrix() = default;

  virtual Index rows() const = 0;
  virtual Index cols() const = 0;
  /// Logical (unpadded) nonzero count.
  virtual std::int64_t nnz() const = 0;

  /// y = A * x (raw pointers; y must not alias x).
  virtual void spmv(const Scalar* x, Scalar* y) const = 0;

  /// Kestrel Slim: attach (or, with fp32 off, drop) the fp32 value stream
  /// (-mat_scalar fp32). Returns false when the format has no fp32 kernels;
  /// the matrix then keeps multiplying in double. spmv() on an fp32 stream
  /// multiplies a float-rounded operator, so use it for preconditioner
  /// operators, not for the operator a Krylov method solves.
  virtual bool set_slim(const SlimOptions& opts) { return !opts.fp32; }

  /// True when spmv() currently reads the fp32 value stream.
  virtual bool slim_active() const { return false; }

  /// y = A * x with size checks.
  void spmv(const Vector& x, Vector& y) const {
    KESTREL_CHECK(x.size() == cols(), "spmv: x size != cols");
    KESTREL_CHECK(x.size() == 0 || x.data() != y.data(),
                  "spmv: x and y must not alias");
    y.resize(rows());
    spmv(x.data(), y.data());
  }

  /// d[i] = A(i,i); requires a square matrix.
  virtual void get_diagonal(Vector& d) const = 0;

  /// Kestrel Aegis ABFT hook: c = Aᵀ·1 (column checksums) computed from the
  /// format's own storage at assembly time. For a fault-free SpMV,
  /// c·x == Σᵢ(A·x)ᵢ up to rounding; aegis::AbftMatrix verifies that
  /// invariant after every multiply. Every KESTREL_REGISTER_KERNEL format
  /// must implement this (enforced by tools/kestrel_lint.py, rule
  /// abft-hook).
  virtual void abft_col_checksum(Vector& c) const = 0;

  virtual std::string format_name() const = 0;

  /// Actual bytes of matrix storage (values + all index metadata).
  virtual std::size_t storage_bytes() const = 0;

  /// Minimum memory traffic of one SpMV under the paper's section 6 model
  /// (matrix data + rowptr/sliceptr metadata + x and y vectors).
  virtual std::size_t spmv_traffic_bytes() const = 0;

  /// ISA tier used by spmv(); defaults to simd::default_tier().
  simd::IsaTier tier() const { return tier_; }
  void set_tier(simd::IsaTier tier) { tier_ = tier; }

  /// Kestrel Flock: re-plan the stored nnz-balanced partition for `nparts`
  /// pool threads. Formats that thread their spmv override this; the
  /// default is a no-op so wrappers / formats without a threaded path
  /// (Dense, AbftMatrix) stay valid targets. Partitions are planned once at
  /// construction from par::configured_threads(); call this only to sweep
  /// thread counts (bench_threads, flock_test).
  virtual void repartition(int nparts) { (void)nparts; }

 protected:
  simd::IsaTier tier_ = simd::default_tier();
};

using MatrixPtr = std::shared_ptr<const Matrix>;

}  // namespace kestrel::mat
