// Minimal recursive JSON reader for the trace-analytics layer.
//
// The analysis subsystem consumes the repo's own JSON — run manifests,
// metrics snapshots, campaign and daemon status files, Chrome trace_event
// dumps — and validates the trace sink in tests. All are machine-written,
// so this parser favours strictness and zero dependencies over speed: full
// value grammar (null/bool/number/string/array/object), \uXXXX escapes
// decoded to UTF-8, std::runtime_error with byte offset on any deviation.
// It is an offline/CLI tool, never on a simulation hot path.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

namespace solsched::obs::analysis {

/// One parsed JSON value. Object member order is preserved (the writers in
/// this repo emit deterministic key orders, and diffs read better that way).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const noexcept { return kind == Kind::kObject; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue* find(const std::string& key) const;
  /// Member `key` as a number; `fallback` when absent or mistyped.
  double number_or(const std::string& key, double fallback = 0.0) const;
  /// Member `key` as a string; `fallback` when absent or mistyped.
  std::string string_or(const std::string& key,
                        const std::string& fallback = {}) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with the byte offset on error.
JsonValue parse_json(const std::string& text);

/// Escapes `s` for embedding inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& s);

}  // namespace solsched::obs::analysis
