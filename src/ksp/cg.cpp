// Preconditioned conjugate gradient (Hestenes–Stiefel), for SPD operators
// with an SPD preconditioner.

#include <cmath>

#include "base/error.hpp"
#include "ksp/ksp.hpp"

namespace kestrel::ksp {

SolveResult Cg::solve_once(LinearContext& ctx, const Vector& b,
                           Vector& x) const {
  const Index n = ctx.local_size();
  KESTREL_CHECK(b.size() == n, "cg: rhs size mismatch");
  KESTREL_CHECK(x.size() == n, "cg: solution size mismatch");
  SolveResult result;

  // Without a preconditioner z = r, so rᵀz is ‖r‖² from the same dot and
  // the same reduction as norm2(r), bit for bit. CG then tests √(rᵀz) and
  // needs two reductions per iteration instead of three, and no z at all.
  const bool unpreconditioned = ctx.preconditioner() == nullptr;
  Vector r(n), p(n), ap(n);
  Vector z(unpreconditioned ? 0 : n);
  const Vector& zr = unpreconditioned ? r : z;

  // r = b - A x
  ctx.apply_operator(x, r);
  r.aypx(-1.0, b);

  if (!unpreconditioned) ctx.apply_pc(r, z);
  p.copy_from(zr);
  Scalar rz = ctx.dot(r, zr);
  const Scalar rnorm0 = unpreconditioned ? std::sqrt(rz) : ctx.norm2(r);
  if (check(rnorm0, rnorm0, 0, &result)) return result;

  for (int it = 1;; ++it) {
    ctx.apply_operator(p, ap);
    const Scalar pap = ctx.dot(p, ap);
    // Negated comparison also trips on NaN: a corrupted ap must not become
    // the alpha denominator.
    if (!(pap > 0.0)) {
      // operator not SPD (or breakdown)
      result.converged = false;
      result.reason = Reason::kDivergedBreakdown;
      result.iterations = it;
      return result;
    }
    const Scalar alpha = rz / pap;
    x.axpy(alpha, p);
    r.axpy(-alpha, ap);

    Scalar rz_next = 0.0;
    if (unpreconditioned) {
      rz_next = ctx.dot(r, r);
      if (check(std::sqrt(rz_next), rnorm0, it, &result)) return result;
    } else {
      if (check(ctx.norm2(r), rnorm0, it, &result)) return result;
      ctx.apply_pc(r, z);
      rz_next = ctx.dot(r, z);
    }
    const Scalar beta = rz_next / rz;
    rz = rz_next;
    p.aypx(beta, zr);  // p = z + beta p
  }
}

}  // namespace kestrel::ksp
