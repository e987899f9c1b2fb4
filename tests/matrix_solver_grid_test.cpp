// Full-grid compatibility sweeps: every Krylov solver against every
// applicable preconditioner on the advection-diffusion operator, and the
// distributed SpMV across every (diag format x ranks) combination — the
// configuration matrix a PETSc-style library must keep working under option
// changes.

#include <gtest/gtest.h>

#include <cmath>

#include "app/advection_diffusion.hpp"
#include "app/gray_scott.hpp"
#include "ksp/context.hpp"
#include "par/parmat.hpp"
#include "pc/pc.hpp"
#include "test_matrices.hpp"

namespace kestrel {
namespace {

// ---- solver x preconditioner grid ----------------------------------------

class SolverPcGrid
    : public ::testing::TestWithParam<std::tuple<const char*, const char*>> {
};

TEST_P(SolverPcGrid, SolvesAdvectionDiffusion) {
  const std::string ksp_type = std::get<0>(GetParam());
  const std::string pc_type = std::get<1>(GetParam());
  if (ksp_type == "richardson" && pc_type == "none") {
    // unpreconditioned Richardson x += (b - A x) requires rho(I - A) < 1,
    // which a stiff operator with O(1/h^2) eigenvalues never satisfies —
    // divergence is the mathematically correct outcome here.
    GTEST_SKIP() << "unpreconditioned Richardson cannot converge on a "
                    "stiff operator";
  }

  app::AdvectionDiffusionParams params;
  params.eps = 0.1;  // mildly advective: safe for every combination
  const mat::Csr a = app::advection_diffusion(16, params);
  Vector x_true(a.rows());
  for (Index i = 0; i < x_true.size(); ++i) {
    x_true[i] = std::sin(0.11 * i);
  }
  Vector b;
  a.spmv(x_true, b);

  const auto pc = pc::make_pc(pc_type, a, 1);
  ksp::Settings settings;
  settings.rtol = 1e-10;
  settings.max_iterations = 20000;
  const auto solver = ksp::make_solver(ksp_type, settings);
  Vector x(a.rows());
  ksp::SeqContext ctx(a, pc.get());
  const auto res = solver->solve(ctx, b, x);
  ASSERT_TRUE(res.converged) << ksp_type << " + " << pc_type << " ("
                             << ksp::reason_name(res.reason) << ")";
  for (Index i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_true[i], 1e-5)
        << ksp_type << " + " << pc_type << " entry " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SolverPcGrid,
    ::testing::Combine(::testing::Values("gmres", "fgmres", "bicgstab",
                                         "richardson"),
                       ::testing::Values("none", "jacobi", "sor", "ilu")),
    [](const ::testing::TestParamInfo<std::tuple<const char*, const char*>>&
           p) {
      return std::string(std::get<0>(p.param)) + "_" + std::get<1>(p.param);
    });

// ---- distributed configuration grid ---------------------------------------

struct ParConfig {
  par::DiagFormat diag;
  int ranks;
};

class ParFormatGrid : public ::testing::TestWithParam<ParConfig> {};

TEST_P(ParFormatGrid, SpmvMatchesSequential) {
  const ParConfig cfg = GetParam();
  app::GrayScott gs(8);
  Vector u0;
  gs.initial_condition(u0);
  const mat::Csr global = gs.rhs_jacobian(u0);

  const auto x = testing::random_x(global.cols(), 7);
  Vector xg(global.cols());
  for (Index i = 0; i < xg.size(); ++i) {
    xg[i] = x[static_cast<std::size_t>(i)];
  }
  Vector y_seq;
  global.spmv(xg, y_seq);

  auto layout = std::make_shared<par::Layout>(
      par::Layout::even_blocked(global.rows(), cfg.ranks, 2));
  par::Fabric::run(cfg.ranks, [&](par::Comm& comm) {
    par::ParMatrixOptions opts;
    opts.diag_format = cfg.diag;
    opts.block_size = 2;
    const par::ParMatrix a =
        par::ParMatrix::from_global(global, layout, comm, opts);
    par::ParVector xp(layout, comm.rank()), yp(layout, comm.rank());
    xp.set_from_global(xg);
    // run twice: plans and ghost buffers must be reusable
    a.spmv(xp, yp, comm);
    a.spmv(xp, yp, comm);
    const Vector y_par = yp.gather_all(comm);
    for (Index i = 0; i < y_seq.size(); ++i) {
      EXPECT_NEAR(y_par[i], y_seq[i], 1e-11) << "row " << i;
    }
  });
}

std::vector<ParConfig> par_configs() {
  std::vector<ParConfig> configs;
  for (par::DiagFormat diag :
       {par::DiagFormat::kCsr, par::DiagFormat::kCsrPerm,
        par::DiagFormat::kSell, par::DiagFormat::kBcsr}) {
    for (int ranks : {1, 2, 4}) configs.push_back({diag, ranks});
  }
  return configs;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParFormatGrid, ::testing::ValuesIn(par_configs()),
    [](const ::testing::TestParamInfo<ParConfig>& p) {
      return std::string(par::diag_format_name(p.param.diag)) + "_r" +
             std::to_string(p.param.ranks);
    });

}  // namespace
}  // namespace kestrel
