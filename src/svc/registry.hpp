#pragma once
// Kestrel Bastion: registry of named, resident matrix handles.
//
// The expensive asset in a solve service is the inspected matrix (paper §6:
// assembly + format conversion dominate a single solve, so production
// workloads assemble once and solve many). The registry owns that asset:
// each add() converts a CSR into the requested compute format, optionally
// wraps it in Aegis ABFT verification, accounts its bytes against a
// MemoryBudget (declining with a structured BudgetError instead of letting
// a later solve OOM), and publishes it as an immutable shared handle.
//
// Fault isolation falls out of immutability: a handle is a
// shared_ptr<const Handle> whose matrices are const — a sabotaged tenant's
// AbftError unwinds that tenant's request only; no request can write
// through a handle, so concurrent tenants never observe each other.
//
// Every ABFT handle carries TWO wrappers over the SAME inner matrix: the
// full one (caller's verify_every) and a degraded one (sampled
// verification) the service switches to under sustained overload — the
// load-watchdog's "cheaper but still checked" mode. verify_every is fixed
// at AbftMatrix construction, hence two wrappers rather than a knob.

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "aegis/abft.hpp"
#include "base/budget.hpp"
#include "mat/csr.hpp"
#include "mat/matrix.hpp"

namespace kestrel::svc {

struct HandleOptions {
  /// Compute format: a name or alias of mat::convert's table (csr, aij...).
  std::string format = "csr";
  /// Block size for bcsr (ignored otherwise).
  Index block_size = 4;
  /// Wrap the built matrix in Aegis ABFT verification.
  bool abft = false;
  aegis::AbftOptions abft_opts;
  /// verify_every of the degraded wrapper the watchdog switches to under
  /// overload (must be >= the full wrapper's to actually be cheaper).
  int degraded_verify_every = 4;
};

struct HandleInfo {
  std::string name;
  std::string format;
  Index rows = 0;
  Index cols = 0;
  std::int64_t nnz = 0;
  std::uint64_t bytes = 0;  ///< accounted against the memory budget
  bool abft = false;
};

class MatrixRegistry {
 public:
  struct Handle {
    mat::MatrixPtr full;      ///< operator served in normal mode
    mat::MatrixPtr degraded;  ///< sampled-verification twin (== full when
                              ///< the handle is not ABFT-wrapped)
    HandleInfo info;
  };
  using HandlePtr = std::shared_ptr<const Handle>;

  /// Handles are accounted against `budget` (global() by default).
  explicit MatrixRegistry(MemoryBudget& budget = MemoryBudget::global())
      : budget_(budget) {}
  ~MatrixRegistry();

  MatrixRegistry(const MatrixRegistry&) = delete;
  MatrixRegistry& operator=(const MatrixRegistry&) = delete;

  /// Builds the compute format from `csr` and registers it under `name`.
  /// Throws BudgetError when the built matrix would not fit the budget
  /// (nothing is retained), Error on a duplicate name or unknown format.
  HandlePtr add(const std::string& name, const mat::Csr& csr,
                HandleOptions opts = {});

  /// Registers an already-built matrix (tests: sabotage hooks need the
  /// concrete wrapper). ABFT wrapping per `opts` applies on top.
  HandlePtr add_matrix(const std::string& name, mat::MatrixPtr m,
                       HandleOptions opts = {});

  /// Throws Error when `name` is unknown.
  HandlePtr get(const std::string& name) const;
  bool has(const std::string& name) const;

  /// Releases the handle's bytes back to the budget. In-flight requests
  /// holding the shared_ptr keep the storage alive until they finish.
  void remove(const std::string& name);

  std::vector<HandleInfo> list() const;
  std::uint64_t resident_bytes() const;

 private:
  HandlePtr insert(const std::string& name, mat::MatrixPtr built,
                   const HandleOptions& opts);

  MemoryBudget& budget_;
  mutable std::mutex mu_;
  std::map<std::string, HandlePtr> handles_;
};

}  // namespace kestrel::svc
