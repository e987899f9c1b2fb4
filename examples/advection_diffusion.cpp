// Advection-diffusion scenario: a nonsymmetric, advection-dominated system
// solved with GMRES/BiCGStab + ILU(0), with the operator held in any
// -mat_type format — the second PDE family the paper's introduction
// motivates (its test code lives in PETSc's advection-diffusion tutorial
// directory).
//
//   ./advection_diffusion [-n 96] [-eps 0.01] [-bx 1.0] [-by 0.5]
//                         [-ksp_type gmres|bicgstab]
//                         [-pc_type ilu|jacobi|bjacobi|sor|none]
//                         [-mat_type sell|csr|csrperm|bcsr|talon]

#include <cstdio>

#include "app/advection_diffusion.hpp"
#include "base/error.hpp"
#include "base/options.hpp"
#include "ksp/context.hpp"
#include "mat/convert.hpp"
#include "pc/pc.hpp"

using namespace kestrel;

int main(int argc, char** argv) try {
  Options& opts = Options::global();
  opts.parse(argc, argv);
  const Index n = opts.get_index("n", 96);
  app::AdvectionDiffusionParams params;
  params.eps = opts.get_scalar("eps", 0.01);
  params.bx = opts.get_scalar("bx", 1.0);
  params.by = opts.get_scalar("by", 0.5);
  const std::string ksp_type = opts.get_string("ksp_type", "gmres");
  const std::string pc_type = opts.get_string("pc_type", "ilu");
  const std::string mat_type = opts.get_string("mat_type", "sell");

  const Scalar h = 1.0 / (n + 1);
  std::printf("advection-diffusion: %dx%d grid, eps=%g, b=(%g, %g), "
              "cell Peclet = %.2f\n",
              n, n, params.eps, params.bx, params.by,
              std::abs(params.bx) * h / params.eps);

  const mat::Csr csr = app::advection_diffusion(n, params);
  // One unknown per grid point: bcsr and bjacobi use 1x1 blocks.
  const std::shared_ptr<mat::Matrix> a = mat::convert(csr, mat_type, 1);
  std::printf("operator: %s, %lld nonzeros\n", a->format_name().c_str(),
              static_cast<long long>(a->nnz()));

  const std::unique_ptr<pc::Pc> prec = pc::make_pc(pc_type, csr, 1);

  const Vector b = app::advection_diffusion_rhs(n);
  Vector u(csr.rows());
  ksp::Settings settings;
  settings.rtol = 1e-10;
  settings.max_iterations = 2000;
  auto solver = ksp::make_solver(ksp_type, settings);
  ksp::SeqContext ctx(*a, prec.get());
  const ksp::SolveResult res = solver->solve(ctx, b, u);

  std::printf("%s + %s: %s in %d iterations, residual %.3e\n",
              ksp_type.c_str(), prec->name().c_str(),
              res.converged ? "converged" : "FAILED", res.iterations,
              res.residual_norm);

  // physical sanity: downstream (high-x, high-y corner) boundary layer
  Scalar umax = 0.0;
  for (Index i = 0; i < u.size(); ++i) umax = std::max(umax, u[i]);
  std::printf("max(u) = %.4f (positive, bounded)\n", umax);
  return res.converged ? 0 : 1;
} catch (const Error& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
