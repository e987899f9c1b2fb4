#include "pc/mg.hpp"

#include "base/error.hpp"
#include "mat/spgemm.hpp"
#include "prof/profiler.hpp"

namespace kestrel::pc {

Multigrid::Multigrid(const mat::Csr& fine, std::vector<mat::Csr> interps)
    : Multigrid(fine, std::move(interps), Options()) {}

Multigrid::Multigrid(const mat::Csr& fine, std::vector<mat::Csr> interps,
                     Options opts, FormatFactory factory)
    : opts_(opts) {
  if (!factory) {
    factory = [](const mat::Csr& a) {
      return std::make_shared<const mat::Csr>(a);
    };
  }
  levels_.resize(interps.size() + 1);

  // Level l's CSR: `fine`, then each Galerkin product, freed by the next.
  mat::Csr coarser;
  const mat::Csr* a = &fine;
  for (std::size_t l = 0; l < levels_.size(); ++l) {
    Level& level = levels_[l];
    level.op = factory(*a);
    a->get_diagonal(level.inv_diag);
    for (Index i = 0; i < level.inv_diag.size(); ++i) {
      KESTREL_CHECK(level.inv_diag[i] != 0.0, "mg: zero diagonal");
      level.inv_diag[i] = 1.0 / level.inv_diag[i];
    }
    if (l == interps.size()) break;
    KESTREL_CHECK(interps[l].rows() == a->rows(),
                  "interpolation row count must match the finer level");
    level.interp = std::move(interps[l]);
    level.restrict_ = level.interp.transpose();
    coarser = mat::galerkin(*a, level.interp, level.restrict_);
    a = &coarser;
  }

  use_direct_coarse_ = a->rows() <= opts_.direct_coarse_limit;
  if (use_direct_coarse_) {
    coarse_lu_ = mat::Dense::from_csr(*a);
    coarse_lu_.lu_factor();
  }
}

void Multigrid::smooth(const Level& level, const Vector& rhs, Vector& x,
                       int sweeps) const {
  for (int s = 0; s < sweeps; ++s) {
    level.op->spmv(x.data(), level.tmp.data());
    for (Index i = 0; i < x.size(); ++i) {
      x[i] += opts_.jacobi_omega * level.inv_diag[i] *
              (rhs[i] - level.tmp[i]);
    }
  }
}

void Multigrid::cycle(int l, const Vector& rhs, Vector& x) const {
  const Level& level = levels_[static_cast<std::size_t>(l)];
  const Index n = level.op->rows();
  level.tmp.resize(n);

  if (l == static_cast<int>(levels_.size()) - 1) {
    if (use_direct_coarse_) {
      coarse_lu_.lu_solve(rhs.data(), x.data());
    } else {
      x.set(0.0);
      smooth(level, rhs, x, opts_.coarse_jacobi_sweeps);
    }
    return;
  }

  x.set(0.0);
  smooth(level, rhs, x, opts_.pre_smooths);

  // residual and restriction
  level.r.resize(n);
  level.op->spmv(x.data(), level.r.data());
  for (Index i = 0; i < n; ++i) level.r[i] = rhs[i] - level.r[i];
  const Index nc = level.interp.cols();
  level.rc.resize(nc);
  level.restrict_.spmv(level.r.data(), level.rc.data());

  // coarse correction
  level.xc.resize(nc);
  cycle(l + 1, level.rc, level.xc);

  // prolongate and correct: x += P xc
  level.interp.spmv(level.xc.data(), level.r.data());
  for (Index i = 0; i < n; ++i) x[i] += level.r[i];

  smooth(level, rhs, x, opts_.post_smooths);
}

void Multigrid::apply(const Vector& r, Vector& z) const {
  KESTREL_CHECK(r.size() == levels_[0].op->rows(), "mg: size mismatch");
  static const int event = prof::registered_event("PCApply(MG)");
  prof::ScopedEvent timer(event);
  z.resize(r.size());
  cycle(0, r, z);
}

}  // namespace kestrel::pc
