#include "simd/dispatch.hpp"

#include <array>
#include <mutex>
#include <string>

#include "base/error.hpp"
#include "base/options.hpp"
#include "mat/kernels/registration.hpp"

namespace kestrel::simd {

namespace {

void ensure_registered() {
  static std::once_flag flag;
  std::call_once(flag, [] {
    // One call per KESTREL_KERNEL_TABLE cell; adding a kernel TU to the
    // table in registration.hpp is all it takes to get it dispatched.
#define KESTREL_CALL_KERNEL_REGISTRATION(fmt, isa) \
  ::kestrel::mat::kernels::register_##fmt##_##isa();
    KESTREL_KERNEL_TABLE(KESTREL_CALL_KERNEL_REGISTRATION)
#undef KESTREL_CALL_KERNEL_REGISTRATION
  });
}

using Table = std::array<std::array<void*, kNumTiers>,
                         static_cast<std::size_t>(Op::kOpCount)>;

Table& table() {
  static Table t{};  // zero-initialized
  return t;
}

std::array<void*, kNumTiers>& row(Op op) {
  return table()[static_cast<std::size_t>(op)];
}

const char* op_name(Op op) {
  switch (op) {
    case Op::kCsrSpmv:
      return "csr_spmv";
    case Op::kCsrSpmvFp32:
      return "csr_spmv_fp32";
    case Op::kCsrSpmvAddRows:
      return "csr_spmv_add_rows";
    case Op::kSellSpmv:
      return "sell_spmv";
    case Op::kSellSpmvFp32:
      return "sell_spmv_fp32";
    case Op::kSellSpmvAdd:
      return "sell_spmv_add";
    case Op::kSellSpmvBitmask:
      return "sell_spmv_bitmask";
    case Op::kSellSpmvPrefetch:
      return "sell_spmv_prefetch";
    case Op::kCsrPermSpmv:
      return "csr_perm_spmv";
    case Op::kCsrPermSpmvFp32:
      return "csr_perm_spmv_fp32";
    case Op::kBcsrSpmv:
      return "bcsr_spmv";
    case Op::kBcsrSpmvFp32:
      return "bcsr_spmv_fp32";
    case Op::kTalonSpmv:
      return "talon_spmv";
    case Op::kTalonSpmvFp32:
      return "talon_spmv_fp32";
    case Op::kTalonSpmvAdd:
      return "talon_spmv_add";
    case Op::kGatherPack:
      return "gather_pack";
    default:
      return "?";
  }
}

}  // namespace

void register_kernel(Op op, IsaTier tier, void* fn) {
  KESTREL_CHECK(fn != nullptr, "null kernel");
  row(op)[static_cast<std::size_t>(tier)] = fn;
}

IsaTier resolve_tier(Op op, IsaTier want) {
  ensure_registered();
  int t = static_cast<int>(want);
  // never pick a tier the CPU cannot execute
  const int best = static_cast<int>(detect_best_tier());
  if (t > best) t = best;
  for (; t >= 0; --t) {
    if (row(op)[static_cast<std::size_t>(t)] != nullptr) {
      return static_cast<IsaTier>(t);
    }
  }
  KESTREL_FAIL(std::string("no kernel registered for ") + op_name(op));
}

void* lookup(Op op, IsaTier want) {
  const IsaTier tier = resolve_tier(op, want);
  return row(op)[static_cast<std::size_t>(tier)];
}

bool has_exact(Op op, IsaTier tier) {
  ensure_registered();
  return row(op)[static_cast<std::size_t>(tier)] != nullptr;
}

IsaTier default_tier() {
  const std::string forced =
      Options::global().get_string("spmv_isa", std::string());
  if (!forced.empty()) return parse_tier(forced);
  return detect_best_tier();
}

}  // namespace kestrel::simd
