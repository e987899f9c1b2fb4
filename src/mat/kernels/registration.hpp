#pragma once
// Explicit kernel registration entry points, one per kernel translation
// unit. Dispatch calls these lazily (once) instead of relying on static
// initializers, which a static-library link could silently drop.
//
// KESTREL_KERNEL_TABLE is the single source of truth for the format x ISA
// kernel matrix: it generates the per-TU entry-point declarations below and
// the calls in simd/dispatch.cpp, and tools/kestrel_lint.py parses it to
// enforce the kernel-TU contract (every vector cell has a scalar
// counterpart, every cell has a matching TU compiled with the right -m
// flags — see tools/kestrel_lint.py for the full rule list).
//
// X(format, isa): one cell per registered kernel TU
// clang-format off
#define KESTREL_KERNEL_TABLE(X) \
  X(csr, scalar)                \
  X(csr, avx)                   \
  X(csr, avx2)                  \
  X(csr, avx512)                \
  X(sell, scalar)               \
  X(sell, avx)                  \
  X(sell, avx2)                 \
  X(sell, avx512)               \
  X(csr_perm, scalar)           \
  X(csr_perm, avx512)           \
  X(bcsr, scalar)               \
  X(bcsr, avx2)                 \
  X(talon, scalar)              \
  X(talon, avx2)                \
  X(talon, avx512)              \
  X(gather, scalar)             \
  X(gather, avx2)               \
  X(gather, avx512)
// clang-format on

namespace kestrel::mat::kernels {

#define KESTREL_DECLARE_KERNEL_REGISTRATION(fmt, isa) \
  void register_##fmt##_##isa();
KESTREL_KERNEL_TABLE(KESTREL_DECLARE_KERNEL_REGISTRATION)
#undef KESTREL_DECLARE_KERNEL_REGISTRATION

}  // namespace kestrel::mat::kernels
