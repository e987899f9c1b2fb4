#pragma once
// PETSc-style options database: "-key value" (or bare "-flag") pairs parsed
// from the command line or set programmatically. Solver components read
// their configuration from here, so examples accept the same option names
// the paper lists (e.g. -pc_type mg -pc_mg_levels 3 -mg_levels_pc_type
// jacobi -mat_type sell -spmv_isa avx512).

#include <atomic>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "base/types.hpp"

namespace kestrel {

class Options {
 public:
  Options() = default;
  Options(int argc, const char* const* argv) { parse(argc, argv); }

  /// Parses "-key [value]" pairs; later settings override earlier ones.
  /// A token starting with '-' that is not parseable as a number starts a
  /// new key; anything else is the value of the preceding key.
  void parse(int argc, const char* const* argv);

  void set(const std::string& key, const std::string& value);
  void set_flag(const std::string& key) { set(key, ""); }

  /// has() and the getters below mark the key they look up as used.
  bool has(const std::string& key) const;

  std::string get_string(const std::string& key,
                         const std::string& fallback) const;
  /// The typed getters throw kestrel::OptionsError (carrying key, raw value
  /// and the expected form) on a malformed value — a structured error
  /// instead of a silent default or a bare abort.
  Index get_index(const std::string& key, Index fallback) const;
  Scalar get_scalar(const std::string& key, Scalar fallback) const;
  bool get_bool(const std::string& key, bool fallback) const;

  /// PETSc's -options_left rule: one warning line per key that was set
  /// but never looked up — a typo, or an option nothing reads any more.
  /// Examples print these at exit, once every component has read its
  /// options.
  std::vector<std::string> unknown_option_warnings() const;

  /// All keys in insertion-independent (sorted) order; for -help output.
  std::vector<std::string> keys() const;

  /// Global database used by components that are not handed one explicitly.
  static Options& global();

 private:
  /// A value and whether a lookup has read it. The flag is a relaxed
  /// atomic set at most once, so lookups stay lock-free when rank and pool
  /// threads read the global database concurrently (`-threads` is read on
  /// every ghost pack). Copying an Options copies the flags.
  struct Entry {
    std::string value;
    mutable std::atomic<bool> used{false};
    Entry() = default;
    Entry(const Entry& other)
        : value(other.value),
          used(other.used.load(std::memory_order_relaxed)) {}
    Entry& operator=(const Entry& other) {
      value = other.value;
      used.store(other.used.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      return *this;
    }
  };

  std::optional<std::string> raw(const std::string& key) const;
  std::map<std::string, Entry> kv_;
};

}  // namespace kestrel
