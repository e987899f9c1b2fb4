// Krylov solver tests, sequential and distributed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <vector>

#include "app/advection_diffusion.hpp"
#include "app/laplacian.hpp"
#include "base/rng.hpp"
#include "ksp/context.hpp"
#include "mat/spgemm.hpp"
#include "ksp/ksp.hpp"
#include "par/parmat.hpp"
#include "pc/ilu0.hpp"
#include "pc/jacobi.hpp"
#include "test_matrices.hpp"

namespace kestrel::ksp {
namespace {

Vector make_rhs(const mat::Matrix& a, const Vector& x_true) {
  Vector b;
  a.spmv(x_true, b);
  return b;
}

Vector sinusoid(Index n) {
  Vector x(n);
  for (Index i = 0; i < n; ++i) x[i] = std::sin(0.1 * i + 1.0);
  return x;
}

TEST(Cg, SolvesSpdLaplacian) {
  const mat::Csr a = app::laplacian_dirichlet(16, 16);
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);
  Vector x(a.rows());

  Settings settings;
  settings.rtol = 1e-10;
  const Cg cg(settings);
  SeqContext ctx(a);
  const SolveResult res = cg.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.reason, Reason::kConvergedRtol);
  for (Index i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Cg, JacobiPreconditioningReducesIterations) {
  // Congruence-scale an SPD tridiagonal matrix (D A D stays SPD) so the
  // diagonal varies over orders of magnitude and Jacobi has work to do.
  std::vector<Scalar> d(50);
  Rng rng(13);
  for (auto& v : d) v = std::pow(10.0, rng.uniform(0.0, 1.5));
  mat::Coo coo(50, 50);
  for (Index i = 0; i < 50; ++i) {
    coo.add(i, i, 4.0 * d[i] * d[i]);
    if (i > 0) {
      coo.add(i, i - 1, -1.0 * d[i] * d[i - 1]);
      coo.add(i - 1, i, -1.0 * d[i - 1] * d[i]);
    }
  }
  const mat::Csr a = coo.to_csr();

  const Vector x_true = sinusoid(50);
  const Vector b = make_rhs(a, x_true);

  Settings settings;
  settings.rtol = 1e-8;
  const Cg cg(settings);

  Vector x0(50);
  SeqContext plain(a);
  const SolveResult res_plain = cg.solve(plain, b, x0);

  Vector x1(50);
  const pc::Jacobi jacobi(a);
  SeqContext pre(a, &jacobi);
  const SolveResult res_pre = cg.solve(pre, b, x1);

  EXPECT_TRUE(res_pre.converged);
  ASSERT_TRUE(res_plain.converged);
  EXPECT_LT(res_pre.iterations, res_plain.iterations);
}

TEST(Cg, ReportsBreakdownOnIndefiniteOperator) {
  mat::Coo coo(2, 2);
  coo.add(0, 0, 1.0);
  coo.add(1, 1, -1.0);  // indefinite
  const mat::Csr a = coo.to_csr();
  Vector b{1.0, 1.0}, x(2);
  const Cg cg;
  SeqContext ctx(a);
  const SolveResult res = cg.solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, Reason::kDivergedBreakdown);
}

TEST(Gmres, SolvesNonsymmetricSystem) {
  const mat::Csr a = testing::banded(80, {-3, 1, 7});  // nonsymmetric band
  const Vector x_true = sinusoid(80);
  const Vector b = make_rhs(a, x_true);
  Vector x(80);

  Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 500;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 80; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-7);
}

TEST(Gmres, RestartStillConverges) {
  const mat::Csr a = testing::banded(60, {-2, 1, 5});
  const Vector x_true = sinusoid(60);
  const Vector b = make_rhs(a, x_true);
  Vector x(60);

  Settings settings;
  settings.rtol = 1e-10;
  settings.gmres_restart = 5;  // force many restart cycles
  settings.max_iterations = 2000;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 60; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Gmres, MonitorSeesMonotoneResiduals) {
  const mat::Csr a = app::laplacian_dirichlet(8, 8);
  const Vector b(a.rows(), 1.0);
  Vector x(a.rows());
  std::vector<Scalar> history;
  Settings settings;
  settings.monitor = [&](int, Scalar rnorm) { history.push_back(rnorm); };
  const Gmres gmres(settings);
  SeqContext ctx(a);
  gmres.solve(ctx, b, x);
  ASSERT_GE(history.size(), 3u);
  for (std::size_t k = 1; k < history.size(); ++k) {
    EXPECT_LE(history[k], history[k - 1] * (1.0 + 1e-12));
  }
}

TEST(Gmres, MaxIterationsReported) {
  const mat::Csr a = app::laplacian_dirichlet(20, 20);
  const Vector b(a.rows(), 1.0);
  Vector x(a.rows());
  Settings settings;
  settings.rtol = 1e-14;
  settings.max_iterations = 3;
  const Gmres gmres(settings);
  SeqContext ctx(a);
  const SolveResult res = gmres.solve(ctx, b, x);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.reason, Reason::kDivergedMaxIts);
}

TEST(BiCgStab, SolvesNonsymmetricSystem) {
  const mat::Csr a = testing::banded(70, {-4, 1, 3});
  const Vector x_true = sinusoid(70);
  const Vector b = make_rhs(a, x_true);
  Vector x(70);
  Settings settings;
  settings.rtol = 1e-12;
  settings.max_iterations = 500;
  const BiCgStab solver(settings);
  SeqContext ctx(a);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 70; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Richardson, ConvergesWithJacobiOnDominantMatrix) {
  const mat::Csr a = testing::banded(40, {-1, 1});  // strongly diagonal
  const Vector x_true = sinusoid(40);
  const Vector b = make_rhs(a, x_true);
  Vector x(40);
  Settings settings;
  settings.rtol = 1e-10;
  settings.max_iterations = 2000;
  const Richardson solver(settings);
  const pc::Jacobi jacobi(a);
  SeqContext ctx(a, &jacobi);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < 40; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-6);
}

TEST(Chebyshev, ConvergesWithSpectralBounds) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  SeqContext bare(a);
  const Scalar emax = estimate_max_eigenvalue(bare) * 1.1;
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);
  Vector x(a.rows());
  Settings settings;
  settings.rtol = 1e-9;
  settings.max_iterations = 3000;
  const Chebyshev solver(settings, emax / 30.0, emax);
  SeqContext ctx(a);
  const SolveResult res = solver.solve(ctx, b, x);
  EXPECT_TRUE(res.converged);
  for (Index i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-4);
}

TEST(EstimateEigenvalue, LaplacianSpectralRadius) {
  // 2D Dirichlet Laplacian eigenvalues are known analytically:
  // lambda(p,q) = (4/h^2)(sin^2(p pi h / 2) + sin^2(q pi h / 2)).
  const Index n = 8;
  const mat::Csr a = app::laplacian_dirichlet(n, n);
  SeqContext ctx(a);
  const Scalar est = estimate_max_eigenvalue(ctx, 100);
  const Scalar h = 1.0 / (n + 1);
  const Scalar exact =
      (4.0 / (h * h)) * 2.0 * std::pow(std::sin(n * M_PI * h / 2.0), 2.0);
  EXPECT_NEAR(est, exact, 0.05 * exact);
}

TEST(SolverFactory, MakesAllTypes) {
  EXPECT_EQ(make_solver("cg")->name(), "cg");
  EXPECT_EQ(make_solver("gmres")->name(), "gmres");
  EXPECT_EQ(make_solver("bicgstab")->name(), "bicgstab");
  EXPECT_EQ(make_solver("richardson")->name(), "richardson");
  EXPECT_THROW(make_solver("nope"), Error);
}

TEST(ParallelKsp, CgMatchesSequentialSolution) {
  const mat::Csr a = app::laplacian_dirichlet(12, 12);
  const Vector x_true = sinusoid(a.rows());
  const Vector b = make_rhs(a, x_true);

  // sequential reference
  Vector x_seq(a.rows());
  Settings settings;
  settings.rtol = 1e-10;
  const Cg cg(settings);
  SeqContext seq(a);
  ASSERT_TRUE(cg.solve(seq, b, x_seq).converged);

  for (int nranks : {2, 4}) {
    auto layout =
        std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
    par::Fabric::run(nranks, [&](par::Comm& comm) {
      const par::ParMatrix pa =
          par::ParMatrix::from_global(a, layout, comm, {});
      par::ParVector xb(layout, comm.rank());
      xb.set_from_global(b);
      Vector x_local(pa.local_rows());
      ParContext ctx(pa, comm);
      const SolveResult res = cg.solve(ctx, xb.local(), x_local);
      EXPECT_TRUE(res.converged);
      // compare against the sequential answer on the owned block
      const Index b0 = layout->begin(comm.rank());
      for (Index i = 0; i < x_local.size(); ++i) {
        EXPECT_NEAR(x_local[i], x_seq[b0 + i], 1e-6);
      }
    });
  }
}

TEST(ParallelKsp, GmresWithSellDiagAndJacobi) {
  const mat::Csr a = testing::banded(48, {-4, -1, 1, 4});
  const Vector x_true = sinusoid(48);
  const Vector b = make_rhs(a, x_true);
  auto layout = std::make_shared<par::Layout>(par::Layout::even(48, 3));
  par::Fabric::run(3, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.diag_format = par::DiagFormat::kSell;
    const par::ParMatrix pa =
        par::ParMatrix::from_global(a, layout, comm, opts);
    // local block-Jacobi preconditioner from the diagonal entries
    Vector diag_local;
    pa.get_diagonal(diag_local);
    par::ParVector xb(layout, comm.rank());
    xb.set_from_global(b);
    Vector x_local(pa.local_rows());
    Settings settings;
    settings.rtol = 1e-10;
    settings.max_iterations = 400;
    const Gmres gmres(settings);
    ParContext ctx(pa, comm);
    const SolveResult res = gmres.solve(ctx, xb.local(), x_local);
    EXPECT_TRUE(res.converged);
    const Index b0 = layout->begin(comm.rank());
    for (Index i = 0; i < x_local.size(); ++i) {
      EXPECT_NEAR(x_local[i], x_true[b0 + i], 1e-6);
    }
  });
}

// --------------------------------------------------------------------------
// CG's reduction count. Without a preconditioner CG tests √(rᵀz) instead of
// a separate ‖r‖, which must change nothing but the number of reductions.
// --------------------------------------------------------------------------

/// CG with three reductions per iteration: it always applies the
/// preconditioner (a copy of r when there is none) and tests norm2(r). The
/// bitwise reference for ksp::Cg.
class ThreeReductionCg final : public Solver {
 public:
  using Solver::Solver;
  std::string name() const override { return "cg"; }
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override {
    const Index n = ctx.local_size();
    SolveResult result;
    Vector r(n), z(n), p(n), ap(n);
    ctx.apply_operator(x, r);
    r.aypx(-1.0, b);
    ctx.apply_pc(r, z);
    p.copy_from(z);
    Scalar rz = ctx.dot(r, z);
    const Scalar rnorm0 = ctx.norm2(r);
    if (check(rnorm0, rnorm0, 0, &result)) return result;
    for (int it = 1;; ++it) {
      ctx.apply_operator(p, ap);
      const Scalar pap = ctx.dot(p, ap);
      if (!(pap > 0.0)) {
        result.converged = false;
        result.reason = Reason::kDivergedBreakdown;
        result.iterations = it;
        return result;
      }
      const Scalar alpha = rz / pap;
      x.axpy(alpha, p);
      r.axpy(-alpha, ap);
      const Scalar rnorm = ctx.norm2(r);
      if (check(rnorm, rnorm0, it, &result)) return result;
      ctx.apply_pc(r, z);
      const Scalar rz_next = ctx.dot(r, z);
      const Scalar beta = rz_next / rz;
      rz = rz_next;
      p.aypx(beta, z);
    }
  }
};

/// Forwards to another context and counts its operator applications and
/// its dot() calls, i.e. the reductions of a distributed solve.
class CountingContext final : public LinearContext {
 public:
  explicit CountingContext(LinearContext& inner) : inner_(inner) {}
  Index local_size() const override { return inner_.local_size(); }
  void apply_operator(const Vector& x, Vector& y) override {
    ++operator_applications;
    inner_.apply_operator(x, y);
  }
  const pc::Pc* preconditioner() const override {
    return inner_.preconditioner();
  }
  Scalar dot(const Vector& a, const Vector& b) override {
    ++dots;
    return inner_.dot(a, b);
  }
  int operator_applications = 0;
  int dots = 0;

 private:
  LinearContext& inner_;
};

/// Forwards to another preconditioner and counts its applications.
class CountingPc final : public pc::Pc {
 public:
  explicit CountingPc(const pc::Pc& inner) : inner_(inner) {}
  void apply(const Vector& r, Vector& z) const override {
    ++applications;
    inner_.apply(r, z);
  }
  std::string name() const override { return inner_.name(); }
  mutable int applications = 0;

 private:
  const pc::Pc& inner_;
};

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof(Scalar)) == 0;
}

/// One solve's observable output: the solution, the result and the monitor
/// history.
struct SolveTrace {
  Vector x;
  SolveResult res;
  std::vector<Scalar> history;
};

template <class Method>
SolveTrace traced_solve(LinearContext& ctx, const Vector& b,
                        int gmres_restart = 30) {
  SolveTrace t;
  Settings settings;
  settings.rtol = 1e-10;
  settings.gmres_restart = gmres_restart;
  settings.monitor = [&t](int it, Scalar rnorm) {
    EXPECT_EQ(it, static_cast<int>(t.history.size()));
    t.history.push_back(rnorm);
  };
  t.x = Vector(ctx.local_size());
  t.res = Method(settings).solve(ctx, b, t.x);
  return t;
}

void expect_bitwise_equal(const SolveTrace& got, const SolveTrace& want,
                          const std::string& what) {
  EXPECT_TRUE(got.res.converged) << what;
  EXPECT_EQ(got.res.iterations, want.res.iterations) << what;
  EXPECT_EQ(got.res.reason, want.res.reason) << what;
  EXPECT_TRUE(same_bits(got.res.residual_norm, want.res.residual_norm))
      << what;
  ASSERT_EQ(got.history.size(), want.history.size()) << what;
  for (std::size_t k = 0; k < want.history.size(); ++k) {
    EXPECT_TRUE(same_bits(got.history[k], want.history[k]))
        << what << " history " << k;
  }
  ASSERT_EQ(got.x.size(), want.x.size()) << what;
  for (Index i = 0; i < want.x.size(); ++i) {
    EXPECT_TRUE(same_bits(got.x[i], want.x[i])) << what << " x[" << i << "]";
  }
}

/// D A D for a diagonal D spread over an order of magnitude: its diagonal
/// varies, so Jacobi changes the iterates, and it stays SPD when A is.
mat::Csr diag_scaled(const mat::Csr& a) {
  std::vector<Scalar> d(static_cast<std::size_t>(a.rows()));
  Rng rng(29);
  for (Scalar& v : d) v = std::pow(10.0, rng.uniform(0.0, 1.0));
  mat::Coo coo(a.rows(), a.cols());
  for (Index i = 0; i < a.rows(); ++i) {
    for (Index k = a.rowptr()[i]; k < a.rowptr()[i + 1]; ++k) {
      const Index j = a.colidx()[k];
      coo.add(i, j,
              d[static_cast<std::size_t>(i)] * a.val()[k] *
                  d[static_cast<std::size_t>(j)]);
    }
  }
  return coo.to_csr();
}

/// The 2-D Dirichlet Laplacian, scaled to D A D.
mat::Csr scaled_laplacian(Index nx) {
  return diag_scaled(app::laplacian_dirichlet(nx, nx));
}

TEST(CgReductions, SeqMatchesThreeReductionCgBitForBit) {
  const mat::Csr a = scaled_laplacian(14);
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  const pc::Jacobi jacobi(a);
  for (const pc::Pc* pc : {static_cast<const pc::Pc*>(nullptr),
                           static_cast<const pc::Pc*>(&jacobi)}) {
    SeqContext ctx(a, pc);
    const SolveTrace want = traced_solve<ThreeReductionCg>(ctx, b);
    const SolveTrace got = traced_solve<Cg>(ctx, b);
    ASSERT_TRUE(want.res.converged);
    expect_bitwise_equal(got, want, pc ? "seq jacobi" : "seq");
  }
}

TEST(CgReductions, ParMatchesThreeReductionCgBitForBit) {
  const mat::Csr a = scaled_laplacian(14);
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  for (int nranks : {1, 2, 4}) {
    auto layout =
        std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
    par::Fabric::run(nranks, [&](par::Comm& comm) {
      const par::ParMatrix pa =
          par::ParMatrix::from_global(a, layout, comm, {});
      par::ParVector pb(layout, comm.rank());
      pb.set_from_global(b);
      const pc::Jacobi jacobi(pa.diag_block());
      for (const pc::Pc* pc : {static_cast<const pc::Pc*>(nullptr),
                               static_cast<const pc::Pc*>(&jacobi)}) {
        ParContext ctx(pa, comm, pc);
        const SolveTrace want = traced_solve<ThreeReductionCg>(ctx, pb.local());
        const SolveTrace got = traced_solve<Cg>(ctx, pb.local());
        ASSERT_TRUE(want.res.converged);
        expect_bitwise_equal(got, want,
                             std::to_string(nranks) + " ranks, rank " +
                                 std::to_string(comm.rank()) +
                                 (pc ? ", jacobi" : ""));
      }
    });
  }
}

TEST(CgReductions, TwoReductionsPerIterationWithoutPreconditioner) {
  const mat::Csr a = scaled_laplacian(10);
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  const pc::Jacobi jacobi(a);

  SeqContext plain(a);
  CountingContext count_plain(plain);
  const SolveTrace p = traced_solve<Cg>(count_plain, b);
  ASSERT_TRUE(p.res.converged);
  EXPECT_EQ(count_plain.dots, 2 * p.res.iterations + 1);

  SeqContext pre(a, &jacobi);
  CountingContext count_pre(pre);
  const SolveTrace q = traced_solve<Cg>(count_pre, b);
  ASSERT_TRUE(q.res.converged);
  EXPECT_EQ(count_pre.dots, 3 * q.res.iterations + 1);

  // The reference pays three per iteration either way.
  CountingContext count_ref(plain);
  const SolveTrace r = traced_solve<ThreeReductionCg>(count_ref, b);
  EXPECT_EQ(count_ref.dots, 3 * r.res.iterations + 1);
  EXPECT_EQ(r.res.iterations, p.res.iterations);
}

// --------------------------------------------------------------------------
// One restarted-GMRES body. Gmres and FGmres run one body that computes
// each cycle's residual once. The references below are GMRES and FGMRES as
// two separate bodies that compute the first cycle's residual twice (once
// for rnorm0, then again to start the cycle). The one body must keep every
// bit of their output and make exactly one operator application fewer per
// solve.
// --------------------------------------------------------------------------

/// Left-preconditioned restarted GMRES as a body of its own. The bitwise
/// reference for ksp::Gmres.
class ReferenceGmres final : public Solver {
 public:
  using Solver::Solver;
  std::string name() const override { return "gmres"; }
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
};

/// Flexible (right-preconditioned) GMRES as a body of its own. The bitwise
/// reference for ksp::FGmres.
class ReferenceFGmres final : public Solver {
 public:
  using Solver::Solver;
  std::string name() const override { return "fgmres"; }
  SolveResult solve_once(LinearContext& ctx, const Vector& b,
                         Vector& x) const override;
};

SolveResult ReferenceGmres::solve_once(LinearContext& ctx, const Vector& b,
                                       Vector& x) const {
  const Index n = ctx.local_size();
  KESTREL_CHECK(b.size() == n, "gmres: rhs size mismatch");
  KESTREL_CHECK(x.size() == n, "gmres: solution size mismatch");
  const int m = settings_.gmres_restart;
  KESTREL_CHECK(m >= 1, "gmres: restart must be >= 1");
  SolveResult result;

  Vector r(n), w(n), t(n);
  std::vector<Vector> basis(static_cast<std::size_t>(m) + 1);
  // Hessenberg in column-major packed form h[j][i], plus Givens terms.
  std::vector<std::vector<Scalar>> h(
      static_cast<std::size_t>(m),
      std::vector<Scalar>(static_cast<std::size_t>(m) + 1, 0.0));
  std::vector<Scalar> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> g(static_cast<std::size_t>(m) + 1, 0.0);

  // Preconditioned initial residual: r = M^{-1}(b - A x).
  ctx.apply_operator(x, t);
  t.aypx(-1.0, b);
  ctx.apply_pc(t, r);
  const Scalar rnorm0 = ctx.norm2(r);
  if (check(rnorm0, rnorm0, 0, &result)) return result;

  int total_it = 0;
  while (true) {
    // Arnoldi from the current residual.
    ctx.apply_operator(x, t);
    t.aypx(-1.0, b);
    ctx.apply_pc(t, r);
    Scalar beta = ctx.norm2(r);
    if (beta == 0.0) {
      result.converged = true;
      result.reason = Reason::kConvergedAtol;
      result.iterations = total_it;
      result.residual_norm = 0.0;
      return result;
    }
    basis[0].copy_from(r);
    basis[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int k = 0;  // number of completed Arnoldi steps this cycle
    for (int j = 0; j < m; ++j) {
      ++total_it;
      // w = M^{-1} A v_j
      ctx.apply_operator(basis[static_cast<std::size_t>(j)], t);
      ctx.apply_pc(t, w);
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
      if (!done && hlast != 0.0 && j + 1 <= m) {
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
    // fused multi-vector update (VecMAXPY): one pass over x
    std::vector<const Vector*> ptrs(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      ptrs[static_cast<std::size_t>(i)] = &basis[static_cast<std::size_t>(i)];
    }
    x.maxpy(static_cast<std::size_t>(k), y.data(), ptrs.data());

    if (result.converged || result.reason == Reason::kDivergedNan ||
        result.reason == Reason::kDeadlineExceeded ||
        (result.reason == Reason::kDivergedMaxIts &&
         total_it >= settings_.max_iterations)) {
      return result;
    }
  }
}

SolveResult ReferenceFGmres::solve_once(LinearContext& ctx,
                                        const Vector& b, Vector& x) const {
  const Index n = ctx.local_size();
  KESTREL_CHECK(b.size() == n, "fgmres: rhs size mismatch");
  KESTREL_CHECK(x.size() == n, "fgmres: solution size mismatch");
  const int m = settings_.gmres_restart;
  KESTREL_CHECK(m >= 1, "fgmres: restart must be >= 1");
  SolveResult result;

  Vector r(n), w(n);
  std::vector<Vector> v(static_cast<std::size_t>(m) + 1);  // Krylov basis
  std::vector<Vector> z(static_cast<std::size_t>(m));      // M^{-1} v_j
  std::vector<std::vector<Scalar>> h(
      static_cast<std::size_t>(m),
      std::vector<Scalar>(static_cast<std::size_t>(m) + 1, 0.0));
  std::vector<Scalar> cs(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> sn(static_cast<std::size_t>(m), 0.0);
  std::vector<Scalar> g(static_cast<std::size_t>(m) + 1, 0.0);

  // unpreconditioned residual (right preconditioning)
  ctx.apply_operator(x, r);
  r.aypx(-1.0, b);
  const Scalar rnorm0 = ctx.norm2(r);
  if (check(rnorm0, rnorm0, 0, &result)) return result;

  int total_it = 0;
  while (true) {
    ctx.apply_operator(x, r);
    r.aypx(-1.0, b);
    const Scalar beta = ctx.norm2(r);
    if (beta == 0.0) {
      result.converged = true;
      result.reason = Reason::kConvergedAtol;
      result.iterations = total_it;
      result.residual_norm = 0.0;
      return result;
    }
    v[0].copy_from(r);
    v[0].scale(1.0 / beta);
    std::fill(g.begin(), g.end(), 0.0);
    g[0] = beta;

    int k = 0;
    for (int j = 0; j < m; ++j) {
      ++total_it;
      // z_j = M^{-1} v_j  (stored!), w = A z_j
      ctx.apply_pc(v[static_cast<std::size_t>(j)],
                   z[static_cast<std::size_t>(j)]);
      ctx.apply_operator(z[static_cast<std::size_t>(j)], w);
      for (int i = 0; i <= j; ++i) {
        const Scalar hij = ctx.dot(w, v[static_cast<std::size_t>(i)]);
        h[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = hij;
        w.axpy(-hij, v[static_cast<std::size_t>(i)]);
      }
      const Scalar hlast = ctx.norm2(w);
      h[static_cast<std::size_t>(j)][static_cast<std::size_t>(j) + 1] =
          hlast;

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
        v[static_cast<std::size_t>(j) + 1].copy_from(w);
        v[static_cast<std::size_t>(j) + 1].scale(1.0 / hlast);
      }
      if (done || hlast == 0.0) break;
    }

    // x += Z y with H y = g (the flexible update uses Z, not V)
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
    // fused multi-vector update (VecMAXPY) over the stored Z directions
    std::vector<const Vector*> ptrs(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
      ptrs[static_cast<std::size_t>(i)] = &z[static_cast<std::size_t>(i)];
    }
    x.maxpy(static_cast<std::size_t>(k), y.data(), ptrs.data());

    if (result.converged || result.reason == Reason::kDivergedNan ||
        result.reason == Reason::kDeadlineExceeded ||
        (result.reason == Reason::kDivergedMaxIts &&
         total_it >= settings_.max_iterations)) {
      return result;
    }
  }
}

/// Upwinded advection–diffusion on an 8x8 grid, scaled to D A D:
/// nonsymmetric, and hard enough that GMRES(5) restarts with every
/// preconditioner the tests use, and GMRES(30) without ILU(0).
mat::Csr nonsymmetric_operator() {
  return diag_scaled(app::advection_diffusion(8, {0.05, 1.0, 0.5}));
}

template <class Method, class Reference>
void expect_matches_reference(LinearContext& ctx, const Vector& b,
                              int restart, const std::string& what) {
  const SolveTrace want = traced_solve<Reference>(ctx, b, restart);
  const SolveTrace got = traced_solve<Method>(ctx, b, restart);
  ASSERT_TRUE(want.res.converged) << what;
  expect_bitwise_equal(got, want, what);
}

TEST(GmresOneBody, SeqMatchesReferenceBodiesBitForBit) {
  const mat::Csr a = nonsymmetric_operator();
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  const pc::Jacobi jacobi(a);
  const pc::Ilu0 ilu(a);
  for (const pc::Pc* pc : {static_cast<const pc::Pc*>(nullptr),
                           static_cast<const pc::Pc*>(&jacobi),
                           static_cast<const pc::Pc*>(&ilu)}) {
    SeqContext ctx(a, pc);
    for (const int restart : {5, 30}) {
      const std::string what = std::string(pc ? pc->name() : "no pc") +
                                ", restart " + std::to_string(restart);
      expect_matches_reference<Gmres, ReferenceGmres>(ctx, b, restart,
                                                      "gmres, " + what);
      expect_matches_reference<FGmres, ReferenceFGmres>(ctx, b, restart,
                                                        "fgmres, " + what);
    }
  }
}

TEST(GmresOneBody, ParMatchesReferenceBodiesBitForBit) {
  const mat::Csr a = nonsymmetric_operator();
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  for (int nranks : {1, 2, 4}) {
    auto layout =
        std::make_shared<par::Layout>(par::Layout::even(a.rows(), nranks));
    par::Fabric::run(nranks, [&](par::Comm& comm) {
      const par::ParMatrix pa =
          par::ParMatrix::from_global(a, layout, comm, {});
      par::ParVector pb(layout, comm.rank());
      pb.set_from_global(b);
      // Block-Jacobi compositions: each rank preconditions its own block.
      const pc::Jacobi jacobi(pa.diag_block());
      const pc::Ilu0 ilu(dynamic_cast<const mat::Csr&>(pa.diag_block()));
      for (const pc::Pc* pc : {static_cast<const pc::Pc*>(nullptr),
                               static_cast<const pc::Pc*>(&jacobi),
                               static_cast<const pc::Pc*>(&ilu)}) {
        ParContext ctx(pa, comm, pc);
        for (const int restart : {5, 30}) {
          const std::string what =
              std::to_string(nranks) + " ranks, rank " +
              std::to_string(comm.rank()) + ", " +
              (pc ? pc->name() : "no pc") + ", restart " +
              std::to_string(restart);
          expect_matches_reference<Gmres, ReferenceGmres>(
              ctx, pb.local(), restart, "gmres, " + what);
          expect_matches_reference<FGmres, ReferenceFGmres>(
              ctx, pb.local(), restart, "fgmres, " + what);
        }
      }
    });
  }
}

/// Operator and preconditioner applications of one sequential solve.
struct Applications {
  int iterations = 0;
  int operators = 0;
  int pcs = 0;
};

template <class Method>
Applications count_applications(const mat::Matrix& a, const pc::Pc& pc,
                                const Vector& b, int restart) {
  const CountingPc counting_pc(pc);
  SeqContext seq(a, &counting_pc);
  CountingContext ctx(seq);
  const SolveTrace t = traced_solve<Method>(ctx, b, restart);
  EXPECT_TRUE(t.res.converged);
  return {t.res.iterations, ctx.operator_applications,
          counting_pc.applications};
}

TEST(GmresOneBody, OneResidualPerCycle) {
  const mat::Csr a = nonsymmetric_operator();
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  const pc::Jacobi jacobi(a);
  for (const int restart : {5, 30}) {
    SCOPED_TRACE("restart " + std::to_string(restart));
    // Each cycle costs one residual plus one operator application per
    // iteration; the cycles are ceil(iterations / restart) when no cycle
    // ends early on a happy breakdown.
    const auto cycles = [restart](int its) {
      return (its + restart - 1) / restart;
    };

    const Applications left =
        count_applications<Gmres>(a, jacobi, b, restart);
    const Applications left_ref =
        count_applications<ReferenceGmres>(a, jacobi, b, restart);
    EXPECT_EQ(left.iterations, left_ref.iterations);
    EXPECT_GT(cycles(left.iterations), 1);
    EXPECT_EQ(left.operators, left.iterations + cycles(left.iterations));
    EXPECT_EQ(left.operators, left_ref.operators - 1);
    // Left preconditioning applies M^{-1} after every operator application.
    EXPECT_EQ(left.pcs, left.operators);
    EXPECT_EQ(left.pcs, left_ref.pcs - 1);

    const Applications right =
        count_applications<FGmres>(a, jacobi, b, restart);
    const Applications right_ref =
        count_applications<ReferenceFGmres>(a, jacobi, b, restart);
    EXPECT_EQ(right.iterations, right_ref.iterations);
    EXPECT_EQ(right.operators, right.iterations + cycles(right.iterations));
    EXPECT_EQ(right.operators, right_ref.operators - 1);
    // Right preconditioning applies M^{-1} once per Arnoldi step only.
    EXPECT_EQ(right.pcs, right.iterations);
    EXPECT_EQ(right.pcs, right_ref.pcs);
  }
}

}  // namespace
}  // namespace kestrel::ksp
