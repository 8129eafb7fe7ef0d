// The one JSON module. Every file solsched writes is JSON or JSONL (trace
// dumps, telemetry, time series, journals, manifests, status files,
// SimTrace events), every writer links solsched_obs, and so does every
// reader: the escaper, the number formatter and the reader live together
// here, so what is written is exactly what is read back.
//
// The reader is strict and zero-dependency: the full value grammar
// (null/bool/number/string/array/object), RFC 8259 numbers only (no sign
// but '-', no leading zeros, no hex, inf or NaN, and nothing that
// overflows to infinity), \uXXXX escapes decoded to UTF-8, and a
// std::runtime_error with the byte offset on any deviation. It never runs
// on a simulation hot path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace solsched::obs {

/// Escapes `s` for embedding inside a JSON string literal: quotes,
/// backslashes and every control character (\n, \r and \t by name, the
/// rest as \u00XX). Other bytes pass through unchanged.
std::string json_escape(const std::string& s);

/// Shortest decimal form that reads back to the same double ("1", "0.125",
/// "1e+30"). `x` must be finite: JSON has no spelling for inf or NaN.
std::string json_number(double x);

/// One parsed JSON value. Object member order is preserved (the writers in
/// this repo emit deterministic key orders, and diffs read better that way).
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;  ///< Always finite.
  /// For a number written as plain decimal digits below 2^64 (no sign,
  /// fraction or exponent): its exact value, read from the digits rather
  /// than through `number`, which rounds above 2^53. Empty otherwise.
  std::optional<std::uint64_t> uint;
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
  /// Member `key` as an unsigned integer (`uint`); `fallback` when absent
  /// or anything else.
  std::uint64_t u64_or(const std::string& key,
                       std::uint64_t fallback = 0) const;
  /// Member `key` as a string; `fallback` when absent or mistyped.
  std::string string_or(const std::string& key,
                        const std::string& fallback = {}) const;
};

/// Parses one JSON document (trailing whitespace allowed, trailing garbage
/// rejected). Throws std::runtime_error with the byte offset on error.
JsonValue parse_json(std::string_view text);

/// One record of a JSONL file: a parsed line with the place its errors
/// name ("<label>: line N: ...").
struct JsonRecord {
  const JsonValue& value;
  const std::string& label;
  std::size_t line_no;

  [[noreturn]] void fail(const std::string& what) const;
  /// Member `key` as an unsigned integer (JsonValue::uint); throws when it
  /// is absent or anything else (a sign, a fraction, an exponent, 2^64).
  std::uint64_t u64(const std::string& key) const;
  /// Member `key` as a number; throws when absent or mistyped.
  double number(const std::string& key) const;
  /// Member `key` as a string; throws when absent or mistyped.
  const std::string& string(const std::string& key) const;
};

/// The first line of the JSONL files a campaign appends to (its journal
/// and telemetry.jsonl): {"<kind>": "<magic>", "spec_digest": "<digest>"}
/// and a newline.
std::string jsonl_header(const std::string& kind, const std::string& magic,
                         const std::string& spec_digest);

/// What replay_jsonl read besides the records.
struct JsonlReplay {
  std::string spec_digest;  ///< The header's; "" while the file has none.
  std::size_t dropped_partial = 0;  ///< Crash-torn tail lines forgiven.
};

/// Replays a file that starts with jsonl_header(kind, magic, ...) through
/// util::replay_lines: every later line must be a JSON object and is passed
/// to `record`; a line that does not parse is forgiven only as the torn
/// final line. Throws std::runtime_error prefixed by `label` for a first
/// line that is not that header ("missing or unknown header"), for a
/// header digest other than a non-empty `expected_digest` ("spec digest
/// mismatch") and for a line that is not an object, and util::ReplayError
/// for a malformed line before the last. Exceptions from `record`
/// propagate.
JsonlReplay replay_jsonl(std::string_view text, const std::string& label,
                         const std::string& kind, const std::string& magic,
                         const std::string& expected_digest,
                         const std::function<void(const JsonRecord&)>& record);

}  // namespace solsched::obs
