#pragma once
// Geometric multigrid preconditioner (PETSc PCMG): V-cycles over a
// user-supplied interpolation hierarchy, Galerkin coarse operators
// (A_c = P^T A P), damped-Jacobi smoothing, dense-LU coarsest solve.
//
// This is the -pc_type mg -pc_mg_levels L -mg_levels_pc_type jacobi
// -mg_coarse_pc_type jacobi configuration of the paper's experiments
// (section 7.2): the preconditioner's work is dominated by SpMV on every
// level, which is why accelerating SpMV accelerates the whole solve. A
// format factory lets each level's operator be built in the compute format
// under test (CSR, SELL, ...), so the preconditioner exercises the same
// kernel the paper benchmarks.

#include <functional>
#include <memory>
#include <vector>

#include "mat/csr.hpp"
#include "mat/dense.hpp"
#include "pc/pc.hpp"

namespace kestrel::pc {

class Multigrid final : public Pc {
 public:
  struct Options {
    int pre_smooths = 1;
    int post_smooths = 1;
    /// Damping of the point-Jacobi smoother (the paper's configuration).
    Scalar jacobi_omega = 2.0 / 3.0;
    /// Largest coarse problem solved directly; hierarchies whose coarsest
    /// level is bigger than this use damped-Jacobi sweeps there instead
    /// (the paper's -mg_coarse_pc_type jacobi choice).
    Index direct_coarse_limit = 4096;
    int coarse_jacobi_sweeps = 8;
  };

  /// Builds an operator in the benchmarked compute format from a level's
  /// CSR (defaults to CSR itself).
  using FormatFactory =
      std::function<std::shared_ptr<const mat::Matrix>(const mat::Csr&)>;

  /// `interps[l]` interpolates level l+1 (coarser) into level l (finer);
  /// level 0 is the fine grid. Coarse operators are Galerkin products.
  Multigrid(const mat::Csr& fine, std::vector<mat::Csr> interps);
  Multigrid(const mat::Csr& fine, std::vector<mat::Csr> interps,
            Options opts, FormatFactory factory = nullptr);

  void apply(const Vector& r, Vector& z) const override;
  std::string name() const override { return "mg"; }

  int num_levels() const { return static_cast<int>(levels_.size()); }
  const mat::Matrix& level_operator(int l) const { return *levels_[l].op; }

 private:
  /// A level keeps no CSR of its operator: each CSR lives only while the
  /// constructor builds `op`, `inv_diag` and the next Galerkin product.
  struct Level {
    std::shared_ptr<const mat::Matrix> op;   ///< compute-format operator
    mat::Csr interp;                         ///< P to the next-coarser level
    mat::Csr restrict_;                      ///< P^T
    Vector inv_diag;                         ///< Jacobi smoother data
    // V-cycle scratch (mutable via the cycle being non-const on copies)
    mutable Vector r, tmp, rc, xc;
  };

  /// `sweeps` damped-Jacobi sweeps: x += omega * D^{-1} (rhs - A x).
  void smooth(const Level& level, const Vector& rhs, Vector& x,
              int sweeps) const;
  void cycle(int l, const Vector& rhs, Vector& x) const;

  Options opts_;
  std::vector<Level> levels_;
  mat::Dense coarse_lu_;
  bool use_direct_coarse_ = false;
};

}  // namespace kestrel::pc
