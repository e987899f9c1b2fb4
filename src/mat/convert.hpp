#pragma once
// The one format table (PETSc's MatConvert under -mat_type): a format name
// turns into a compute-format matrix here and nowhere else. Each name also
// answers to its PETSc type name: csr (aij), csrperm (aijperm), sell,
// bcsr (baij) and talon (spc5).

#include <memory>
#include <string_view>

#include "mat/csr.hpp"

namespace kestrel::mat {

/// Builds format `type` (a name or an alias) from `csr` with the format's
/// default options; bcsr uses `block_size` x `block_size` blocks. An
/// unknown name throws an Error that lists the five names. Only csr and
/// csrperm copy `csr`; the rvalue overload hands them its storage instead.
std::shared_ptr<Matrix> convert(const Csr& csr, std::string_view type,
                                Index block_size);
std::shared_ptr<Matrix> convert(Csr&& csr, std::string_view type,
                                Index block_size);

/// The table name of `type` ("aij" -> "csr"); throws like convert() on an
/// unknown name.
std::string_view canonical_format(std::string_view type);

}  // namespace kestrel::mat
