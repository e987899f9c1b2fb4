#pragma once
// Preconditioner layer (PETSc PC). A Pc maps a residual r to an
// approximate error z ~= A^{-1} r. Implementations: Identity, Jacobi,
// block-Jacobi, SOR/SSOR, ILU(0) and geometric multigrid (pc/mg.hpp).

#include <memory>
#include <string>

#include "base/types.hpp"
#include "vec/vector.hpp"

namespace kestrel::mat {
class Matrix;
class Csr;
}  // namespace kestrel::mat

namespace kestrel::pc {

class Pc {
 public:
  virtual ~Pc() = default;
  /// z = M^{-1} r. z is resized as needed; r is untouched.
  virtual void apply(const Vector& r, Vector& z) const = 0;
  virtual std::string name() const = 0;
};

class Identity final : public Pc {
 public:
  void apply(const Vector& r, Vector& z) const override { z.copy_from(r); }
  std::string name() const override { return "none"; }
};

/// Factory for the simple matrix-based preconditioners: "none", "jacobi",
/// "bjacobi" (blocks of block_size unknowns, the problem's dofs per grid
/// point; the others ignore it), "sor", "ilu". Multigrid has its own
/// builder in pc/mg.hpp because it needs a grid hierarchy.
std::unique_ptr<Pc> make_pc(const std::string& type, const mat::Csr& a,
                            Index block_size);

}  // namespace kestrel::pc
