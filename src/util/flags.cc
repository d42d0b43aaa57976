#include "util/flags.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>

namespace ldpr {

FlagParser::FlagParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    const size_t eq = body.find('=');
    if (eq != std::string::npos) {
      flags_[body.substr(0, eq)] = body.substr(eq + 1);
      continue;
    }
    // "--name value" when the next token is not a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      flags_[body] = argv[i + 1];
      ++i;
    } else {
      flags_[body] = "";
    }
  }
}

bool FlagParser::Has(const std::string& name) const {
  queried_[name] = true;
  return flags_.count(name) > 0;
}

std::string FlagParser::GetString(const std::string& name,
                                  const std::string& fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

StatusOr<double> FlagParser::GetDouble(const std::string& name,
                                       double fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  const double v = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(v)) {
    return InvalidArgumentError("flag --" + name +
                                " expects a number, got: " + it->second);
  }
  return v;
}

StatusOr<int64_t> FlagParser::GetInt(const std::string& name,
                                     int64_t fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0' || errno == ERANGE) {
    return InvalidArgumentError("flag --" + name +
                                " expects an integer, got: " + it->second);
  }
  return static_cast<int64_t>(v);
}

StatusOr<int64_t> FlagParser::GetNonNegativeInt(const std::string& name,
                                                int64_t fallback) const {
  StatusOr<int64_t> v = GetInt(name, fallback);
  if (v.ok() && *v < 0) {
    return InvalidArgumentError("--" + name + " must be >= 0");
  }
  return v;
}

bool FlagParser::GetBool(const std::string& name, bool fallback) const {
  queried_[name] = true;
  const auto it = flags_.find(name);
  if (it == flags_.end()) return fallback;
  return it->second.empty() || it->second == "true" || it->second == "1";
}

std::vector<std::string> FlagParser::unused_flags() const {
  std::vector<std::string> unused;
  for (const auto& [name, value] : flags_) {
    (void)value;
    if (queried_.count(name) == 0) unused.push_back(name);
  }
  return unused;
}

}  // namespace ldpr
