#pragma once
// Kernel registry and runtime dispatch.
//
// Each (operation, ISA tier) pair maps to a function pointer registered by
// the kernel translation units at static-initialization time. Lookup
// returns the requested tier if present and supported, otherwise falls back
// to the next lower tier (so e.g. asking for AVX-512 on an AVX2-only CPU
// degrades gracefully, and CSRPerm — which has no AVX/AVX2 variants —
// resolves to scalar below AVX-512).

#include <cstdint>

#include "mat/kernels/views.hpp"
#include "simd/isa.hpp"

namespace kestrel::simd {

/// y = A*x  (CSR). Alg. 1 of the paper for vector tiers.
using CsrSpmvFn = void (*)(const mat::CsrView&, const Scalar* x, Scalar* y);
/// y[rows[i]] += (A*x)[i] over the compressed rows of an off-diagonal
/// block (paper section 2.2: only nonzero rows are stored).
using CsrSpmvAddRowsFn = void (*)(const mat::CsrView&, const Index* rows,
                                  const Scalar* x, Scalar* y);
/// y = A*x  (SELL). Alg. 2 of the paper for vector tiers.
using SellSpmvFn = void (*)(const mat::SellView&, const Scalar* x, Scalar* y);
using CsrPermSpmvFn = void (*)(const mat::CsrPermView&, const Scalar* x,
                               Scalar* y);
using BcsrSpmvFn = void (*)(const mat::BcsrView&, const Scalar* x, Scalar* y);
/// y = A*x (Talon beta(r,c) blocks, SPC5-style mask-driven expand loads).
using TalonSpmvFn = void (*)(const mat::TalonView&, const Scalar* x,
                             Scalar* y);
/// out[i] = x[idx[i]] for i in [0, n): gather-pack of ghost values into a
/// contiguous send buffer (Kestrel Slipstream). The AVX2/AVX-512 tiers use
/// hardware gathers (vgatherdpd); indices must be valid for x.
using GatherPackFn = void (*)(const Scalar* x, const Index* idx, Index n,
                              Scalar* out);

/// Every format's main SpMV op has an `...Fp32` twin with the same function
/// type: the kernel reads the view's fp32 value stream (val32) instead of
/// val and widens on load, so accumulation stays double (Kestrel Slim).
enum class Op : int {
  kCsrSpmv = 0,
  kCsrSpmvFp32,
  kCsrSpmvAddRows,
  kSellSpmv,
  kSellSpmvFp32,
  kSellSpmvBitmask,   ///< ESB-style masked variant (ablation)
  kSellSpmvPrefetch,  ///< unrolled + software-prefetch variant (ablation,
                      ///< paper section 5.5)
  kCsrPermSpmv,
  kCsrPermSpmvFp32,
  kBcsrSpmv,
  kBcsrSpmvFp32,
  kTalonSpmv,
  kTalonSpmvFp32,
  kGatherPack,
  kOpCount,
};

/// Registers `fn` for (op, tier); called from kernel TUs via Registrar.
void register_kernel(Op op, IsaTier tier, void* fn);

/// Highest registered+supported tier <= `want`; throws if none exists.
IsaTier resolve_tier(Op op, IsaTier want);

/// Raw pointer for (op, tier) with fallback as described above.
void* lookup(Op op, IsaTier want);

template <class Fn>
Fn lookup_as(Op op, IsaTier want) {
  return reinterpret_cast<Fn>(lookup(op, want));
}

/// True if an exact (no-fallback) kernel is registered for (op, tier).
bool has_exact(Op op, IsaTier tier);

/// Static-initialization helper used by kernel TUs.
struct Registrar {
  Registrar(Op op, IsaTier tier, void* fn) { register_kernel(op, tier, fn); }
};

}  // namespace kestrel::simd

/// Registers a kernel function for an (op, tier) cell from inside a kernel
/// TU's register_<format>_<isa>() entry point. Kernel TUs must use this
/// macro (not register_kernel directly): tools/kestrel_lint.py keys on it
/// to cross-check each TU's declared tier against the -m flags the build
/// gives that TU in src/CMakeLists.txt.
#define KESTREL_REGISTER_KERNEL(op, tier, fn)                    \
  ::kestrel::simd::register_kernel(                              \
      ::kestrel::simd::Op::op, ::kestrel::simd::IsaTier::tier,   \
      reinterpret_cast<void*>(&(fn)))
