// Krylov solver tests, sequential and distributed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "app/laplacian.hpp"
#include "base/rng.hpp"
#include "ksp/context.hpp"
#include "mat/spgemm.hpp"
#include "ksp/ksp.hpp"
#include "par/parmat.hpp"
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

/// Forwards to another context and counts its dot() calls, i.e. the
/// reductions of a distributed solve.
class CountingContext final : public LinearContext {
 public:
  explicit CountingContext(LinearContext& inner) : inner_(inner) {}
  Index local_size() const override { return inner_.local_size(); }
  void apply_operator(const Vector& x, Vector& y) override {
    inner_.apply_operator(x, y);
  }
  const pc::Pc* preconditioner() const override {
    return inner_.preconditioner();
  }
  Scalar dot(const Vector& a, const Vector& b) override {
    ++dots;
    return inner_.dot(a, b);
  }
  int dots = 0;

 private:
  LinearContext& inner_;
};

bool same_bits(Scalar a, Scalar b) {
  return std::memcmp(&a, &b, sizeof(Scalar)) == 0;
}

/// One solve's observable output: the solution, the result and the monitor
/// history.
struct CgTrace {
  Vector x;
  SolveResult res;
  std::vector<Scalar> history;
};

template <class Method>
CgTrace traced_solve(LinearContext& ctx, const Vector& b) {
  CgTrace t;
  Settings settings;
  settings.rtol = 1e-10;
  settings.monitor = [&t](int it, Scalar rnorm) {
    EXPECT_EQ(it, static_cast<int>(t.history.size()));
    t.history.push_back(rnorm);
  };
  t.x = Vector(ctx.local_size());
  t.res = Method(settings).solve(ctx, b, t.x);
  return t;
}

void expect_bitwise_equal(const CgTrace& got, const CgTrace& want,
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

/// D A D for the 2-D Dirichlet Laplacian A and a diagonal D spread over
/// an order of magnitude: SPD, and its diagonal varies, so Jacobi changes
/// the iterates.
mat::Csr scaled_laplacian(Index nx) {
  const mat::Csr a = app::laplacian_dirichlet(nx, nx);
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

TEST(CgReductions, SeqMatchesThreeReductionCgBitForBit) {
  const mat::Csr a = scaled_laplacian(14);
  const Vector b = make_rhs(a, sinusoid(a.rows()));
  const pc::Jacobi jacobi(a);
  for (const pc::Pc* pc : {static_cast<const pc::Pc*>(nullptr),
                           static_cast<const pc::Pc*>(&jacobi)}) {
    SeqContext ctx(a, pc);
    const CgTrace want = traced_solve<ThreeReductionCg>(ctx, b);
    const CgTrace got = traced_solve<Cg>(ctx, b);
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
        const CgTrace want = traced_solve<ThreeReductionCg>(ctx, pb.local());
        const CgTrace got = traced_solve<Cg>(ctx, pb.local());
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
  const CgTrace p = traced_solve<Cg>(count_plain, b);
  ASSERT_TRUE(p.res.converged);
  EXPECT_EQ(count_plain.dots, 2 * p.res.iterations + 1);

  SeqContext pre(a, &jacobi);
  CountingContext count_pre(pre);
  const CgTrace q = traced_solve<Cg>(count_pre, b);
  ASSERT_TRUE(q.res.converged);
  EXPECT_EQ(count_pre.dots, 3 * q.res.iterations + 1);

  // The reference pays three per iteration either way.
  CountingContext count_ref(plain);
  const CgTrace r = traced_solve<ThreeReductionCg>(count_ref, b);
  EXPECT_EQ(count_ref.dots, 3 * r.res.iterations + 1);
  EXPECT_EQ(r.res.iterations, p.res.iterations);
}

}  // namespace
}  // namespace kestrel::ksp
