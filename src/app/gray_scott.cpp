#include "app/gray_scott.hpp"

#include <cmath>
#include <utility>

#include "base/error.hpp"

namespace kestrel::app {

GrayScott::GrayScott(Index n, GrayScottParams params)
    : grid_(n, n, 2, params.domain, params.domain), params_(params) {
  KESTREL_CHECK(n >= 4, "Gray-Scott grid too small");
}

void GrayScott::rhs(const Vector& state, Vector& f) const {
  KESTREL_CHECK(state.size() == size(), "gray-scott: state size mismatch");
  f.resize(size());
  const Index n = grid_.nx();
  const Scalar cx = 1.0 / (grid_.hx() * grid_.hx());
  const Scalar cy = 1.0 / (grid_.hy() * grid_.hy());
  const Scalar gamma = params_.gamma;
  const Scalar kappa = params_.kappa;

  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const Scalar u = state[grid_.idx(i, j, 0)];
      const Scalar v = state[grid_.idx(i, j, 1)];
      const Scalar lap_u =
          cx * (state[grid_.idx(i - 1, j, 0)] + state[grid_.idx(i + 1, j, 0)] -
                2.0 * u) +
          cy * (state[grid_.idx(i, j - 1, 0)] + state[grid_.idx(i, j + 1, 0)] -
                2.0 * u);
      const Scalar lap_v =
          cx * (state[grid_.idx(i - 1, j, 1)] + state[grid_.idx(i + 1, j, 1)] -
                2.0 * v) +
          cy * (state[grid_.idx(i, j - 1, 1)] + state[grid_.idx(i, j + 1, 1)] -
                2.0 * v);
      const Scalar uvv = u * v * v;
      f[grid_.idx(i, j, 0)] = params_.d1 * lap_u - uvv + gamma * (1.0 - u);
      f[grid_.idx(i, j, 1)] =
          params_.d2 * lap_v + uvv - (gamma + kappa) * v;
    }
  }
}

mat::Csr GrayScott::rhs_jacobian(const Vector& state) const {
  KESTREL_CHECK(state.size() == size(), "gray-scott: state size mismatch");
  const Index n = grid_.nx();
  const Scalar cx = 1.0 / (grid_.hx() * grid_.hx());
  const Scalar cy = 1.0 / (grid_.hy() * grid_.hy());

  // Every row stores the full 2x2 block of each of its 5 stencil nodes, the
  // way PETSc's DMDA assembly preallocates them (the cross-component
  // neighbor couplings are structural zeros). This reproduces the paper's
  // matrix shape: exactly 10 stored elements per row, so the arrays are
  // sized up front and filled in place.
  constexpr Index kRowNnz = 10;
  const GIndex total = static_cast<GIndex>(size()) * kRowNnz;
  if (total > IndexOverflowError::ceiling()) {
    throw IndexOverflowError(total, "Gray-Scott Jacobian nonzero count",
                             __FILE__, __LINE__);
  }
  AlignedBuffer<Index> rowptr(static_cast<std::size_t>(size()) + 1);
  AlignedBuffer<Index> colidx(static_cast<std::size_t>(total));
  AlignedBuffer<Scalar> val(static_cast<std::size_t>(total));
  for (Index r = 0; r <= size(); ++r) {
    rowptr[static_cast<std::size_t>(r)] = r * kRowNnz;
  }

  const Scalar du_diag = -2.0 * params_.d1 * (cx + cy);
  const Scalar dv_diag = -2.0 * params_.d2 * (cx + cy);
  const Scalar wu_x = params_.d1 * cx, wv_x = params_.d2 * cx;
  const Scalar wu_y = params_.d1 * cy, wv_y = params_.d2 * cy;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const Index ru = grid_.idx(i, j, 0);
      const Scalar u = state[ru];
      const Scalar v = state[ru + 1];

      // Per stencil node: the u-column and the 2x2 block
      // {uu, uv; vu, vv} it contributes to rows (ru, ru + 1).
      struct Block {
        Index col;
        Scalar uu, uv, vu, vv;
      } blocks[5] = {
          {ru, du_diag - v * v - params_.gamma, -2.0 * u * v, v * v,
           dv_diag + 2.0 * u * v - (params_.gamma + params_.kappa)},
          {grid_.idx(i - 1, j, 0), wu_x, 0.0, 0.0, wv_x},
          {grid_.idx(i + 1, j, 0), wu_x, 0.0, 0.0, wv_x},
          {grid_.idx(i, j - 1, 0), wu_y, 0.0, 0.0, wv_y},
          {grid_.idx(i, j + 1, 0), wu_y, 0.0, 0.0, wv_y}};
      // Columns ascend with the node; the periodic wrap puts the boundary
      // neighbors out of stencil order.
      for (int b = 1; b < 5; ++b) {
        for (int p = b; p > 0 && blocks[p].col < blocks[p - 1].col; --p) {
          std::swap(blocks[p], blocks[p - 1]);
        }
      }

      const std::size_t at = static_cast<std::size_t>(ru) * kRowNnz;
      Index* cu = colidx.data() + at;
      Index* cv = cu + kRowNnz;
      Scalar* vu = val.data() + at;
      Scalar* vv = vu + kRowNnz;
      for (int b = 0; b < 5; ++b) {
        cu[2 * b] = cv[2 * b] = blocks[b].col;
        cu[2 * b + 1] = cv[2 * b + 1] = blocks[b].col + 1;
        // 0.0 + x is what a summing assembly (PETSc ADD_VALUES into zeroed
        // storage) stores: it turns the -0.0 of -2uv at v = 0 into +0.0.
        vu[2 * b] = 0.0 + blocks[b].uu;
        vu[2 * b + 1] = 0.0 + blocks[b].uv;
        vv[2 * b] = 0.0 + blocks[b].vu;
        vv[2 * b + 1] = 0.0 + blocks[b].vv;
      }
    }
  }
  return mat::Csr::adopt(size(), size(), std::move(rowptr), std::move(colidx),
                         std::move(val));
}

void GrayScott::initial_condition(Vector& state) const {
  state.resize(size());
  const Index n = grid_.nx();
  const Scalar l = params_.domain;
  const Scalar lo = 0.375 * l;
  const Scalar hi = 0.625 * l;
  for (Index j = 0; j < n; ++j) {
    for (Index i = 0; i < n; ++i) {
      const Scalar x = grid_.x(i);
      const Scalar y = grid_.y(j);
      Scalar u = 1.0, v = 0.0;
      if (x >= lo && x <= hi && y >= lo && y <= hi) {
        // deterministic symmetry-breaking perturbation in the seeded square
        const Scalar wiggle =
            0.05 * std::sin(20.0 * M_PI * x / l) *
            std::sin(14.0 * M_PI * y / l);
        u = 0.5 + wiggle;
        v = 0.25 - wiggle;
      }
      state[grid_.idx(i, j, 0)] = u;
      state[grid_.idx(i, j, 1)] = v;
    }
  }
}

std::vector<mat::Csr> gray_scott_interpolation_chain(const Grid2D& fine,
                                                     int levels) {
  KESTREL_CHECK(levels >= 1, "need at least one level");
  std::vector<mat::Csr> interps;
  Grid2D grid = fine;
  for (int l = 0; l + 1 < levels; ++l) {
    KESTREL_CHECK(grid.can_coarsen(),
                  "grid not coarsenable to the requested level count");
    interps.push_back(grid.interpolation());
    grid = grid.coarsen();
  }
  return interps;
}

}  // namespace kestrel::app
