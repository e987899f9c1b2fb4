// Restarted GMRES with modified Gram–Schmidt orthogonalization and
// Givens-rotation least squares — the workhorse solver in the paper's
// experiments (-ksp_type gmres is PETSc's default). One body serves both
// preconditioning sides:
//   * Gmres preconditions on the left: it minimizes ‖M⁻¹(b − A x)‖ over
//     the Krylov basis V of M⁻¹A and updates x += V y;
//   * FGmres is flexible GMRES (Saad 1993), preconditioned on the right: it
//     stores the directions z_j = M⁻¹ v_j and updates x += Z y, so the
//     preconditioner may change between iterations (an inner iterative
//     solve, an adaptive multigrid cycle). PETSc exposes it as
//     -ksp_type fgmres.

#include <cmath>
#include <vector>

#include "base/error.hpp"
#include "ksp/ksp.hpp"

namespace kestrel::ksp {

SolveResult Gmres::solve_once(LinearContext& ctx, const Vector& b,
                              Vector& x) const {
  const Index n = ctx.local_size();
  KESTREL_CHECK(b.size() == n, name() + ": rhs size mismatch");
  KESTREL_CHECK(x.size() == n, name() + ": solution size mismatch");
  const int m = settings_.gmres_restart;
  KESTREL_CHECK(m >= 1, name() + ": restart must be >= 1");
  SolveResult result;

  Vector r(n), w(n);
  Vector t(flexible_ ? 0 : n);  // A v_j, or b - A x, before M^{-1}
  std::vector<Vector> basis(static_cast<std::size_t>(m) + 1);
  // z_j = M^{-1} v_j, stored only by the flexible variant.
  std::vector<Vector> z(flexible_ ? static_cast<std::size_t>(m) : 0);
  // Hessenberg in column-major packed form h[j][i], plus Givens terms.
  std::vector<std::vector<Scalar>> h(
      static_cast<std::size_t>(m),
      std::vector<Scalar>(static_cast<std::size_t>(m) + 1, 0.0));
  std::vector<Scalar> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> g(static_cast<std::size_t>(m) + 1, 0.0);

  // The cycle's residual r and its norm: M^{-1}(b - A x) on the left,
  // b - A x on the right.
  const auto residual = [&] {
    if (flexible_) {
      ctx.apply_operator(x, r);
      r.aypx(-1.0, b);
    } else {
      ctx.apply_operator(x, t);
      t.aypx(-1.0, b);
      ctx.apply_pc(t, r);
    }
    return ctx.norm2(r);
  };
  Scalar beta = residual();
  const Scalar rnorm0 = beta;
  if (check(rnorm0, rnorm0, 0, &result)) return result;

  int total_it = 0;
  while (true) {
    if (beta == 0.0) {
      result.converged = true;
      result.reason = Reason::kConvergedAtol;
      result.iterations = total_it;
      result.residual_norm = 0.0;
      return result;
    }
    // Arnoldi from the current residual.
    basis[0].copy_from(r);
    basis[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int k = 0;  // number of completed Arnoldi steps this cycle
    for (int j = 0; j < m; ++j) {
      ++total_it;
      const Vector& vj = basis[static_cast<std::size_t>(j)];
      if (flexible_) {
        // z_j = M^{-1} v_j (stored), w = A z_j
        Vector& zj = z[static_cast<std::size_t>(j)];
        ctx.apply_pc(vj, zj);
        ctx.apply_operator(zj, w);
      } else {
        // w = M^{-1} A v_j
        ctx.apply_operator(vj, t);
        ctx.apply_pc(t, w);
      }
      // modified Gram–Schmidt
      for (int i = 0; i <= j; ++i) {
        const Scalar hij = ctx.dot(w, basis[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = hij;
        w.axpy(-hij, basis[static_cast<std::size_t>(i)]);
      }
      const Scalar hlast = ctx.norm2(w);
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1] =
          hlast;

      // apply previous Givens rotations to the new column
      auto& col = h[static_cast<std::size_t>(j)];
      for (int i = 0; i < j; ++i) {
        const Scalar tmp = cs[static_cast<std::size_t>(i)] *
                               col[static_cast<std::size_t>(i)] +
                           sn[static_cast<std::size_t>(i)] *
                               col[static_cast<std::size_t>(i) + 1];
        col[static_cast<std::size_t>(i) + 1] =
            -sn[static_cast<std::size_t>(i)] *
                col[static_cast<std::size_t>(i)] +
            cs[static_cast<std::size_t>(i)] *
                col[static_cast<std::size_t>(i) + 1];
        col[static_cast<std::size_t>(i)] = tmp;
      }
      // new rotation to annihilate the subdiagonal
      const Scalar denom = std::hypot(col[static_cast<std::size_t>(j)],
                                      col[static_cast<std::size_t>(j) + 1]);
      if (!std::isfinite(denom)) {
        // A NaN/Inf Hessenberg entry (poisoned operator or dot product)
        // would silently corrupt every later rotation; surface it now.
        result.converged = false;
        result.reason = Reason::kDivergedNan;
        result.iterations = total_it;
        result.residual_norm = denom;
        return result;
      }
      if (denom == 0.0) {
        cs[static_cast<std::size_t>(j)] = 1.0;
        sn[static_cast<std::size_t>(j)] = 0.0;
      } else {
        cs[static_cast<std::size_t>(j)] =
            col[static_cast<std::size_t>(j)] / denom;
        sn[static_cast<std::size_t>(j)] =
            col[static_cast<std::size_t>(j) + 1] / denom;
      }
      col[static_cast<std::size_t>(j)] = denom;
      col[static_cast<std::size_t>(j) + 1] = 0.0;
      g[static_cast<std::size_t>(j) + 1] =
          -sn[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];
      g[static_cast<std::size_t>(j)] =
          cs[static_cast<std::size_t>(j)] * g[static_cast<std::size_t>(j)];

      k = j + 1;
      const Scalar rnorm = std::abs(g[static_cast<std::size_t>(j) + 1]);
      const bool done = check(rnorm, rnorm0, total_it, &result);
      if (!done && hlast != 0.0) {
        basis[static_cast<std::size_t>(j) + 1].copy_from(w);
        basis[static_cast<std::size_t>(j) + 1].scale(1.0 / hlast);
      }
      if (done || hlast == 0.0) {
        // solve the least squares and update x, then return or restart
        break;
      }
    }

    // back substitution: y = H^{-1} g (upper triangular k x k)
    std::vector<Scalar> y(static_cast<std::size_t>(k), 0.0);
    for (int i = k - 1; i >= 0; --i) {
      Scalar sum = g[static_cast<std::size_t>(i)];
      for (int j2 = i + 1; j2 < k; ++j2) {
        sum -= h[static_cast<std::size_t>(j2)][static_cast<std::size_t>(i)] *
               y[static_cast<std::size_t>(j2)];
      }
      const Scalar hii =
          h[static_cast<std::size_t>(i)][static_cast<std::size_t>(i)];
      if (hii == 0.0) {
        result.converged = false;
        result.reason = Reason::kDivergedBreakdown;
        result.iterations = total_it;
        return result;
      }
      y[static_cast<std::size_t>(i)] = sum / hii;
    }
    // fused multi-vector update (VecMAXPY), one pass over x: x += V y on
    // the left, x += Z y on the right
    const std::vector<Vector>& dirs = flexible_ ? z : basis;
    std::vector<const Vector*> ptrs(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      ptrs[static_cast<std::size_t>(i)] = &dirs[static_cast<std::size_t>(i)];
    }
    x.maxpy(static_cast<std::size_t>(k), y.data(), ptrs.data());

    if (result.converged || result.reason == Reason::kDivergedNan ||
        result.reason == Reason::kDeadlineExceeded ||
        (result.reason == Reason::kDivergedMaxIts &&
         total_it >= settings_.max_iterations)) {
      return result;
    }
    beta = residual();
  }
}

}  // namespace kestrel::ksp
