// Minimal command-line flag parsing for the examples, benches and tools.
//
// Flags are of the form `--name value` or `--name=value`; a declared boolean
// flag may appear bare (`--verbose`). Unknown flags are an error so typos
// don't silently fall back to defaults mid-experiment, and numeric flags are
// validated at parse time so `--seed oops` or `--eta 1.5x` is a reported
// error instead of a silent zero.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace solsched::util {

/// Parsed command line with typed accessors and a generated usage string.
class Cli {
 public:
  /// How a flag's value is validated and how a bare `--flag` is read.
  enum class FlagType {
    kString,  ///< Any value; requires an explicit value on the command line.
    kBool,    ///< true/false/1/0/yes/no/on/off; bare `--flag` means true.
    kNumber,  ///< Finite decimal number, fully consumed; value required.
  };

  /// Declares a flag before parsing. `description` feeds usage(). The type
  /// is inferred from the default: "true"/"false" declare a boolean, a
  /// string that parses completely as a finite number declares a numeric
  /// flag, anything else a string flag.
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& description);

  /// Declares a flag with an explicit type (e.g. a string flag whose
  /// default happens to look numeric).
  void add_flag(const std::string& name, const std::string& default_value,
                const std::string& description, FlagType type);

  /// Parses argv. Returns false (and fills error()) on unknown flags, a
  /// valueful flag with no value (end of argv or followed by another
  /// `--flag`), or a typed flag whose value fails validation (trailing
  /// garbage, NaN/Inf, not a boolean literal); `--help` sets
  /// help_requested().
  bool parse(int argc, const char* const* argv);

  bool help_requested() const noexcept { return help_; }
  const std::string& error() const noexcept { return error_; }

  /// Typed access; the flag must have been declared. The numeric accessors
  /// re-validate strictly — full-string consumption, finite values, no
  /// sign for seeds — and throw std::invalid_argument naming the flag on
  /// malformed values (reachable only through malformed *defaults* when
  /// parse() ran, since parse() validates user input first).
  std::string get(const std::string& name) const;
  double get_double(const std::string& name) const;
  long long get_int(const std::string& name) const;
  bool get_bool(const std::string& name) const;
  std::uint64_t get_seed(const std::string& name) const;

  /// Unsigned accessor for count-like flags (ports, queue depths, timeout
  /// milliseconds). Rejects signs, fractions, trailing garbage and
  /// overflow — `--port -1` must be an error, never a 2^64-1 wraparound —
  /// and optionally enforces an inclusive upper bound (e.g. 65535 for a
  /// port). Throws std::invalid_argument naming the flag.
  std::uint64_t get_uint(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name, std::uint64_t max) const;

  /// Formatted flag table for --help output.
  std::string usage(const std::string& program) const;

 private:
  struct Flag {
    std::string value;
    std::string default_value;
    std::string description;
    FlagType type = FlagType::kString;
  };
  const Flag& flag_of(const std::string& name) const;

  std::map<std::string, Flag> flags_;
  bool help_ = false;
  std::string error_;
};

}  // namespace solsched::util
