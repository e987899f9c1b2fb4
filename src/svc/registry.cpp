#include "svc/registry.hpp"

#include <utility>

#include "base/error.hpp"
#include "mat/convert.hpp"

namespace kestrel::svc {

MatrixRegistry::~MatrixRegistry() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, handle] : handles_) {
    budget_.release(handle->info.bytes);
  }
  handles_.clear();
}

MatrixRegistry::HandlePtr MatrixRegistry::add(const std::string& name,
                                              const mat::Csr& csr,
                                              HandleOptions opts) {
  return insert(name, mat::convert(csr, opts.format, opts.block_size), opts);
}

MatrixRegistry::HandlePtr MatrixRegistry::add_matrix(const std::string& name,
                                                     mat::MatrixPtr m,
                                                     HandleOptions opts) {
  KESTREL_CHECK(m != nullptr, "svc: null matrix for handle '" + name + "'");
  opts.format = m->format_name();
  return insert(name, std::move(m), opts);
}

MatrixRegistry::HandlePtr MatrixRegistry::insert(const std::string& name,
                                                 mat::MatrixPtr built,
                                                 const HandleOptions& opts) {
  auto handle = std::make_shared<Handle>();
  handle->info.name = name;
  handle->info.rows = built->rows();
  handle->info.cols = built->cols();
  handle->info.nnz = built->nnz();
  handle->info.abft = opts.abft;
  if (opts.abft) {
    KESTREL_CHECK(opts.degraded_verify_every >= opts.abft_opts.verify_every,
                  "svc: degraded verify_every must not verify more often "
                  "than the full wrapper");
    aegis::AbftOptions degraded_opts = opts.abft_opts;
    degraded_opts.verify_every = opts.degraded_verify_every;
    // Both wrappers share the one inner matrix: the resident bytes are paid
    // once, and the watchdog switch costs a pointer swap, not a rebuild.
    handle->full =
        std::make_shared<const aegis::AbftMatrix>(built, opts.abft_opts);
    handle->degraded =
        std::make_shared<const aegis::AbftMatrix>(built, degraded_opts);
  } else {
    handle->full = built;
    handle->degraded = built;
  }
  handle->info.format = handle->full->format_name();
  handle->info.bytes =
      static_cast<std::uint64_t>(handle->full->storage_bytes());

  std::lock_guard<std::mutex> lock(mu_);
  KESTREL_CHECK(handles_.find(name) == handles_.end(),
                "svc: handle '" + name + "' already registered");
  // May throw BudgetError: the build above is then discarded whole — the
  // registry never retains a handle it could not account for.
  budget_.reserve(handle->info.bytes, "svc handle '" + name + "'");
  HandlePtr out = handle;
  handles_.emplace(name, out);
  return out;
}

MatrixRegistry::HandlePtr MatrixRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(name);
  KESTREL_CHECK(it != handles_.end(),
                "svc: unknown handle '" + name + "'");
  return it->second;
}

bool MatrixRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return handles_.find(name) != handles_.end();
}

void MatrixRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = handles_.find(name);
  KESTREL_CHECK(it != handles_.end(),
                "svc: unknown handle '" + name + "'");
  budget_.release(it->second->info.bytes);
  handles_.erase(it);
}

std::vector<HandleInfo> MatrixRegistry::list() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<HandleInfo> out;
  out.reserve(handles_.size());
  for (const auto& [name, handle] : handles_) out.push_back(handle->info);
  return out;
}

std::uint64_t MatrixRegistry::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint64_t total = 0;
  for (const auto& [name, handle] : handles_) total += handle->info.bytes;
  return total;
}

}  // namespace kestrel::svc
