#include "app/grid2d.hpp"

#include <utility>

#include "base/error.hpp"

namespace kestrel::app {

Grid2D::Grid2D(Index nx, Index ny, Index dof, Scalar lx, Scalar ly)
    : nx_(nx), ny_(ny), dof_(dof), lx_(lx), ly_(ly) {
  KESTREL_CHECK(nx >= 1 && ny >= 1 && dof >= 1, "bad grid parameters");
  KESTREL_CHECK(lx > 0.0 && ly > 0.0, "bad domain size");
  const GIndex total = static_cast<GIndex>(nx) * ny * dof;
  KESTREL_CHECK(total < (GIndex{1} << 31),
                "grid exceeds 32-bit indexing (the paper notes 16384^2 x 2 "
                "is near this limit)");
}

Grid2D Grid2D::coarsen() const {
  KESTREL_CHECK(can_coarsen(), "grid dimensions must be even to coarsen");
  return Grid2D(nx_ / 2, ny_ / 2, dof_, lx_, ly_);
}

namespace {

/// Bilinear stencil of fine node (i, j) on the factor-2 coarse grid: coarse
/// nodes live at even fine coordinates, so an odd coordinate averages its
/// two coarse neighbors. Writes the coarse node numbers in ascending order,
/// with weights, and returns how many there are (1, 2 or 4). When a coarse
/// direction has a single node both neighbors wrap onto it, and their
/// weights are summed into one entry.
int coarse_stencil(const Grid2D& coarse, Index i, Index j, Index nodes[4],
                   Scalar weights[4]) {
  const bool ox = (i % 2) != 0;
  const bool oy = (j % 2) != 0;
  const Scalar w = ox && oy ? 0.25 : (ox || oy ? 0.5 : 1.0);
  const Index xs[2] = {i / 2, coarse.wrap_x(i / 2 + 1)};
  const Index ys[2] = {j / 2, coarse.wrap_y(j / 2 + 1)};
  int count = 0;
  for (int b = 0; b < (oy ? 2 : 1); ++b) {
    for (int a = 0; a < (ox ? 2 : 1); ++a) {
      const Index node = ys[b] * coarse.nx() + xs[a];
      int p = 0;
      while (p < count && nodes[p] < node) ++p;
      if (p < count && nodes[p] == node) {
        weights[p] += w;
        continue;
      }
      for (int q = count; q > p; --q) {
        nodes[q] = nodes[q - 1];
        weights[q] = weights[q - 1];
      }
      nodes[p] = node;
      weights[p] = w;
      ++count;
    }
  }
  return count;
}

}  // namespace

mat::Csr Grid2D::interpolation() const {
  const Grid2D coarse = coarsen();
  Index nodes[4];
  Scalar weights[4];

  // Rows (i, j, c) are numbered node-major, so one pass over the nodes
  // gives the row pointer and a second writes the entries in place. The
  // operator is block-diagonal in the components: column node * dof + c.
  AlignedBuffer<Index> rowptr(static_cast<std::size_t>(size()) + 1);
  GIndex total = 0;
  std::size_t row = 0;
  rowptr[0] = 0;
  for (Index j = 0; j < ny_; ++j) {
    for (Index i = 0; i < nx_; ++i) {
      const int len = coarse_stencil(coarse, i, j, nodes, weights);
      for (Index c = 0; c < dof_; ++c) {
        total += len;
        rowptr[++row] = static_cast<Index>(total);
      }
    }
  }
  if (total > IndexOverflowError::ceiling()) {
    throw IndexOverflowError(total, "Grid2D::interpolation nonzero count",
                             __FILE__, __LINE__);
  }

  AlignedBuffer<Index> colidx(static_cast<std::size_t>(total));
  AlignedBuffer<Scalar> val(static_cast<std::size_t>(total));
  std::size_t at = 0;
  for (Index j = 0; j < ny_; ++j) {
    for (Index i = 0; i < nx_; ++i) {
      const int len = coarse_stencil(coarse, i, j, nodes, weights);
      for (Index c = 0; c < dof_; ++c) {
        for (int e = 0; e < len; ++e, ++at) {
          colidx[at] = nodes[e] * dof_ + c;
          val[at] = weights[e];
        }
      }
    }
  }
  return mat::Csr::adopt(size(), coarse.size(), std::move(rowptr),
                         std::move(colidx), std::move(val));
}

}  // namespace kestrel::app
