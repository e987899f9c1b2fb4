#include "mat/slim.hpp"

#include <string>

#include "base/error.hpp"
#include "base/options.hpp"

namespace kestrel::mat {

SlimOptions slim_options_from(const Options& opts) {
  SlimOptions o;
  const std::string sca = opts.get_string("mat_scalar", "fp64");
  if (sca == "fp32") {
    o.fp32 = true;
  } else if (sca != "fp64") {
    throw OptionsError("mat_scalar", sca, "fp64 or fp32", __FILE__, __LINE__);
  }
  return o;
}

void SlimStore::attach(const SlimOptions& opts, const Scalar* val,
                       std::size_t nvals) {
  fp32_ = opts.fp32;
  if (!fp32_) val32_.resize(0);
  refresh_values(val, nvals);
}

void SlimStore::refresh_values(const Scalar* val, std::size_t nvals) {
  if (!fp32_) return;
  val32_.resize(nvals);
  for (std::size_t i = 0; i < nvals; ++i) {
    val32_[i] = static_cast<float>(val[i]);
  }
}

}  // namespace kestrel::mat
