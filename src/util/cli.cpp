#include "util/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace solsched::util {
namespace {

/// Full-string strtod: true when `text` is a complete, finite number.
bool parse_full_double(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  if (errno == ERANGE || !std::isfinite(value)) return false;
  *out = value;
  return true;
}

bool parse_full_int(const std::string& text, long long* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool parse_full_seed(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  // strtoull silently wraps "-2" to a huge value; a negative seed is a typo.
  for (char c : text)
    if (c == '-' || c == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (end != text.c_str() + text.size() || errno == ERANGE) return false;
  *out = static_cast<std::uint64_t>(value);
  return true;
}

/// Boolean literals accepted for kBool flags; nullptr result = not a literal.
const bool* parse_bool_literal(const std::string& text) {
  static const bool kTrue = true, kFalse = false;
  if (text == "true" || text == "1" || text == "yes" || text == "on")
    return &kTrue;
  if (text == "false" || text == "0" || text == "no" || text == "off")
    return &kFalse;
  return nullptr;
}

Cli::FlagType infer_type(const std::string& default_value) {
  if (default_value == "true" || default_value == "false")
    return Cli::FlagType::kBool;
  double ignored = 0.0;
  if (parse_full_double(default_value, &ignored)) return Cli::FlagType::kNumber;
  return Cli::FlagType::kString;
}

}  // namespace

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& description) {
  add_flag(name, default_value, description, infer_type(default_value));
}

void Cli::add_flag(const std::string& name, const std::string& default_value,
                   const std::string& description, FlagType type) {
  flags_[name] = Flag{default_value, default_value, description, type};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      help_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      error_ = "unexpected positional argument: " + arg;
      return false;
    }
    arg = arg.substr(2);
    std::string value;
    bool has_value = false;
    const std::size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
      has_value = true;
    }
    auto it = flags_.find(arg);
    if (it == flags_.end()) {
      error_ = "unknown flag: --" + arg;
      return false;
    }
    Flag& flag = it->second;
    if (!has_value) {
      const bool next_is_flag =
          i + 1 >= argc || std::string(argv[i + 1]).rfind("--", 0) == 0;
      if (flag.type == FlagType::kBool) {
        // A bare boolean flag means true; a following boolean literal is
        // consumed as its value, any other token is left alone (so
        // `--verbose --days 3` and `--verbose stray` both keep their
        // meaning: the former sets two flags, the latter errors on the
        // positional token in the next iteration).
        if (!next_is_flag && parse_bool_literal(argv[i + 1]) != nullptr)
          value = argv[++i];
        else
          value = "true";
      } else if (next_is_flag) {
        // A valueful flag at end-of-argv (or followed by another --flag)
        // used to silently become the string "true", which numeric parsing
        // then turned into 0. Report it instead.
        error_ = "flag --" + arg + " requires a value";
        return false;
      } else {
        value = argv[++i];
      }
    }
    switch (flag.type) {
      case FlagType::kNumber: {
        double parsed = 0.0;
        if (!parse_full_double(value, &parsed)) {
          error_ = "flag --" + arg + ": invalid number \"" + value + "\"";
          return false;
        }
        break;
      }
      case FlagType::kBool:
        if (parse_bool_literal(value) == nullptr) {
          error_ = "flag --" + arg + ": invalid boolean \"" + value +
                   "\" (use true/false/1/0/yes/no/on/off)";
          return false;
        }
        break;
      case FlagType::kString:
        break;
    }
    flag.value = value;
  }
  return true;
}

const Cli::Flag& Cli::flag_of(const std::string& name) const {
  const auto it = flags_.find(name);
  if (it == flags_.end())
    throw std::invalid_argument("Cli::get: undeclared flag " + name);
  return it->second;
}

std::string Cli::get(const std::string& name) const {
  return flag_of(name).value;
}

double Cli::get_double(const std::string& name) const {
  const std::string& value = flag_of(name).value;
  double parsed = 0.0;
  if (!parse_full_double(value, &parsed))
    throw std::invalid_argument("flag --" + name + ": invalid number \"" +
                                value + "\"");
  return parsed;
}

long long Cli::get_int(const std::string& name) const {
  const std::string& value = flag_of(name).value;
  long long parsed = 0;
  if (!parse_full_int(value, &parsed))
    throw std::invalid_argument("flag --" + name + ": invalid integer \"" +
                                value + "\"");
  return parsed;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string& value = flag_of(name).value;
  const bool* parsed = parse_bool_literal(value);
  if (parsed == nullptr)
    throw std::invalid_argument("flag --" + name + ": invalid boolean \"" +
                                value + "\"");
  return *parsed;
}

std::uint64_t Cli::get_seed(const std::string& name) const {
  const std::string& value = flag_of(name).value;
  std::uint64_t parsed = 0;
  if (!parse_full_seed(value, &parsed))
    throw std::invalid_argument("flag --" + name + ": invalid seed \"" +
                                value + "\" (unsigned decimal)");
  return parsed;
}

std::uint64_t Cli::get_uint(const std::string& name) const {
  return get_uint(name, std::numeric_limits<std::uint64_t>::max());
}

std::uint64_t Cli::get_uint(const std::string& name, std::uint64_t max) const {
  const std::string& value = flag_of(name).value;
  std::uint64_t parsed = 0;
  // parse_full_seed already refuses signs (no silent -1 -> 2^64-1 wrap),
  // fractions and ERANGE overflow; this accessor adds the domain bound.
  if (!parse_full_seed(value, &parsed))
    throw std::invalid_argument("flag --" + name +
                                ": invalid unsigned integer \"" + value +
                                "\"");
  if (parsed > max)
    throw std::invalid_argument("flag --" + name + ": value " + value +
                                " exceeds maximum " + std::to_string(max));
  return parsed;
}

std::string Cli::usage(const std::string& program) const {
  std::ostringstream out;
  out << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    out << "  --" << name;
    if (!flag.default_value.empty())
      out << " (default: " << flag.default_value << ")";
    out << "\n      " << flag.description << "\n";
  }
  return out.str();
}

}  // namespace solsched::util
