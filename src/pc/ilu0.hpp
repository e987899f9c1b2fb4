#pragma once
// ILU(0): incomplete LU factorization with zero fill-in on the CSR sparsity
// pattern, plus the triangular solves to apply it. This is the paper's
// stated future-work item ("(possibly incomplete) LU decomposition and
// triangular solves ... to make [SELL] usable with more preconditioner
// choices") — implemented here on the CSR side of the house.

#include "mat/csr.hpp"
#include "pc/pc.hpp"

namespace kestrel::pc {

class Ilu0 final : public Pc {
 public:
  explicit Ilu0(const mat::Csr& a);

  /// z = U^{-1} L^{-1} r.
  void apply(const Vector& r, Vector& z) const override;
  std::string name() const override { return "ilu"; }

 private:
  mat::Csr lu_;  ///< L (unit diagonal, strictly below) and U on A's pattern
  std::vector<Index> diag_pos_;  ///< position of the diagonal in each row
};

}  // namespace kestrel::pc
