#include "mat/convert.hpp"

#include <string>
#include <utility>

#include "base/error.hpp"
#include "mat/bcsr.hpp"
#include "mat/csr_perm.hpp"
#include "mat/sell.hpp"
#include "mat/talon.hpp"

namespace kestrel::mat {

namespace {

/// Each format's name and its PETSc type name.
constexpr std::string_view kTable[][2] = {{"csr", "aij"},
                                          {"csrperm", "aijperm"},
                                          {"sell", "sell"},
                                          {"bcsr", "baij"},
                                          {"talon", "spc5"}};

}  // namespace

std::string_view canonical_format(std::string_view type) {
  for (const auto& [name, alias] : kTable) {
    if (type == name || type == alias) return name;
  }
  std::string names;
  for (const auto& entry : kTable) {
    if (!names.empty()) names += '|';
    names += entry[0];
  }
  KESTREL_FAIL("unknown matrix format '" + std::string(type) +
               "' (expected " + names + ")");
}

std::shared_ptr<Matrix> convert(const Csr& csr, std::string_view type,
                                Index block_size) {
  const std::string_view format = canonical_format(type);
  if (format == "csr") return std::make_shared<Csr>(csr);
  if (format == "csrperm") return std::make_shared<CsrPerm>(Csr(csr));
  if (format == "sell") return std::make_shared<Sell>(csr);
  if (format == "bcsr") return std::make_shared<Bcsr>(csr, block_size);
  return std::make_shared<Talon>(csr);
}

std::shared_ptr<Matrix> convert(Csr&& csr, std::string_view type,
                                Index block_size) {
  const std::string_view format = canonical_format(type);
  if (format == "csr") return std::make_shared<Csr>(std::move(csr));
  if (format == "csrperm") return std::make_shared<CsrPerm>(std::move(csr));
  return convert(std::as_const(csr), format, block_size);
}

}  // namespace kestrel::mat
