#include "base/options.hpp"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "base/error.hpp"

namespace kestrel {

namespace {

bool looks_like_number(const std::string& s) {
  if (s.empty()) return false;
  char* end = nullptr;
  std::strtod(s.c_str(), &end);
  return end == s.c_str() + s.size();
}

bool is_key_token(const std::string& s) {
  return s.size() >= 2 && s[0] == '-' && !looks_like_number(s);
}

}  // namespace

void Options::parse(int argc, const char* const* argv) {
  std::string pending;
  for (int i = 0; i < argc; ++i) {
    const std::string tok = argv[i];
    if (is_key_token(tok)) {
      if (!pending.empty()) set_flag(pending);
      pending = tok.substr(1);
    } else if (!pending.empty()) {
      set(pending, tok);
      pending.clear();
    }
    // a bare value with no preceding key (e.g. argv[0]) is ignored
  }
  if (!pending.empty()) set_flag(pending);
}

void Options::set(const std::string& key, const std::string& value) {
  KESTREL_CHECK(!key.empty(), "empty option key");
  kv_[key] = value;
}

bool Options::has(const std::string& key) const {
  return kv_.find(key) != kv_.end();
}

std::optional<std::string> Options::raw(const std::string& key) const {
  auto it = kv_.find(key);
  if (it == kv_.end()) return std::nullopt;
  return it->second;
}

std::string Options::get_string(const std::string& key,
                                const std::string& fallback) const {
  auto v = raw(key);
  return v ? *v : fallback;
}

Index Options::get_index(const std::string& key, Index fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  const long parsed = std::strtol(v->c_str(), &end, 10);
  if (v->empty() || end != v->c_str() + v->size()) {
    throw OptionsError(key, *v, "an integer", __FILE__, __LINE__);
  }
  return static_cast<Index>(parsed);
}

Scalar Options::get_scalar(const std::string& key, Scalar fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  if (v->empty() || end != v->c_str() + v->size()) {
    throw OptionsError(key, *v, "a number", __FILE__, __LINE__);
  }
  return parsed;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  auto v = raw(key);
  if (!v) return fallback;
  if (v->empty() || *v == "true" || *v == "1" || *v == "yes") return true;
  if (*v == "false" || *v == "0" || *v == "no") return false;
  throw OptionsError(key, *v, "a boolean", __FILE__, __LINE__);
}

std::vector<std::string> Options::unknown_keys(
    const std::string& prefix, const std::vector<std::string>& known) const {
  std::vector<std::string> out;
  for (const auto& [k, _] : kv_) {
    if (k.compare(0, prefix.size(), prefix) != 0) continue;
    if (std::find(known.begin(), known.end(), k) == known.end()) {
      out.push_back(k);
    }
  }
  return out;
}

std::vector<std::string> Options::unknown_option_warnings() const {
  // The prefixes components own, with every spelling they read. A typo like
  // -ksp_rtoll silently falls back to the default; surfacing it as a warning
  // is the difference between a misconfigured run and a debugging session.
  static const struct {
    const char* prefix;
    std::vector<std::string> known;
  } families[] = {
      {"aegis_",
       {"aegis_faults", "aegis_abft", "aegis_abft_tol",
        "aegis_checkpoint_every", "aegis_max_rollbacks"}},
      {"ksp_",
       {"ksp_type", "ksp_rtol", "ksp_atol", "ksp_max_it",
        "ksp_gmres_restart", "ksp_monitor", "ksp_breakdown_recovery",
        "ksp_max_restarts"}},
      {"mat_", {"mat_type", "mat_scalar"}},
  };
  std::vector<std::string> out;
  for (const auto& fam : families) {
    for (const std::string& k : unknown_keys(fam.prefix, fam.known)) {
      out.push_back("WARNING: unknown option -" + k +
                    " (unrecognized " + fam.prefix + "* option; a typo?)");
    }
  }
  return out;
}

std::vector<std::string> Options::keys() const {
  std::vector<std::string> out;
  out.reserve(kv_.size());
  for (const auto& [k, _] : kv_) out.push_back(k);
  return out;
}

Options& Options::global() {
  static Options instance;
  return instance;
}

}  // namespace kestrel
