#pragma once
// Sparse matrix products (Gustavson's algorithm) — substrate for the
// Galerkin coarse operators (R * A * P) used by the geometric multigrid
// preconditioner.

#include "mat/csr.hpp"

namespace kestrel::mat {

/// C = A * B.
Csr spgemm(const Csr& a, const Csr& b);

/// Galerkin triple product P^T * (A * P), given P and its stored
/// transpose `pt` (the multigrid restriction).
Csr galerkin(const Csr& a, const Csr& p, const Csr& pt);

/// C = alpha*A + beta*B (same dimensions; sparsity is the union).
Csr add(Scalar alpha, const Csr& a, Scalar beta, const Csr& b);

/// A <- I + beta*A in place, with exactly the arithmetic of
/// add(1.0, identity(n), beta, A): 1.0 + beta*a_ii on the diagonal and
/// 0.0 + beta*a_ij elsewhere. Needs a square A that stores every diagonal
/// entry (and no fp32 value stream); otherwise returns false and leaves A
/// untouched, and the caller falls back to add().
bool shift_identity_in_place(Scalar beta, Csr& a);

/// Identity matrix of order n.
Csr identity(Index n);

}  // namespace kestrel::mat
