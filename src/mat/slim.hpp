#pragma once
// Kestrel Slim: an optional fp32 value stream for the SpMV formats.
//
// SpMV on large matrices is bandwidth bound, and the biggest per-nonzero
// stream is the 8-byte value.  With -mat_scalar fp32 a format keeps a
// single-precision shadow of its value array; its fp32 kernel entry points
// (the same templated body as the double ones) read the shadow and widen
// on load (vcvtps2pd), so accumulation stays double and only the memory
// traffic is single precision.
//
// The result is a perturbed operator (values rounded to float), so fp32 is
// meant for preconditioner operators — e.g. multigrid level operators —
// where the outer Krylov method keeps working on the double operator.  The
// fat arrays are always kept: they stay the source of truth for assembly,
// ABFT checksums and every double multiply.

#include <cstddef>

#include "base/aligned.hpp"
#include "base/types.hpp"

namespace kestrel {
class Options;
}

namespace kestrel::mat {

/// Requested slim mode, orthogonal to the storage format.
struct SlimOptions {
  bool fp32 = false;  ///< -mat_scalar fp32: single-precision value stream
};

/// Parses -mat_scalar {fp64|fp32} from an options database; throws
/// OptionsError on any other value.
SlimOptions slim_options_from(const Options& opts);

/// The fp32 shadow of a format's value array.
class SlimStore {
 public:
  bool fp32() const { return fp32_; }

  /// Builds the shadow of `val` when `opts.fp32`, else drops it.
  void attach(const SlimOptions& opts, const Scalar* val, std::size_t nvals);

  /// Re-shadows the fp32 stream after the fat values changed in place
  /// (copy_values_from and friends).  No-op when fp32 is off.
  void refresh_values(const Scalar* val, std::size_t nvals);

  /// The shadow, or null when fp32 is off (the views' val32 field).
  const float* val32() const { return fp32_ ? val32_.data() : nullptr; }

 private:
  bool fp32_ = false;
  AlignedBuffer<float> val32_;
};

}  // namespace kestrel::mat
