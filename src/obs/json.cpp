#include "obs/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

#include "util/durable.hpp"

namespace solsched::obs {
namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing garbage after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const char* what) const {
    throw std::runtime_error("parse_json: " + std::string(what) +
                             " at byte " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  bool at(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  bool at_digit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  JsonValue parse_value() {
    skip_ws();
    JsonValue v;
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"':
        v.kind = JsonValue::Kind::kString;
        v.string = parse_string();
        return v;
      case 't':
        if (!consume_literal("true")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = true;
        return v;
      case 'f':
        if (!consume_literal("false")) fail("bad literal");
        v.kind = JsonValue::Kind::kBool;
        v.boolean = false;
        return v;
      case 'n':
        if (!consume_literal("null")) fail("bad literal");
        v.kind = JsonValue::Kind::kNull;
        return v;
      default: return parse_number();
    }
  }

  JsonValue parse_object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      if (peek() != '"') fail("expected object key");
      std::string key = parse_string();
      skip_ws();
      if (peek() != ':') fail("expected ':'");
      ++pos_;
      v.object.emplace_back(std::move(key), parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}'");
    }
  }

  JsonValue parse_array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.array.push_back(parse_value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']'");
    }
  }

  std::string parse_string() {
    std::string out;
    ++pos_;  // opening quote
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20)
        fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
              code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
              code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
              code += static_cast<unsigned>(h - 'A' + 10);
            else
              fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by any writer in this repo; passed through as-is).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  void digits() {
    if (!at_digit()) fail("expected digit");
    while (at_digit()) ++pos_;
  }

  /// RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, finite.
  JsonValue parse_number() {
    const std::size_t start = pos_;
    const bool negative = at('-');
    if (negative) ++pos_;
    if (!at_digit()) fail("expected value");
    if (at('0'))
      ++pos_;
    else
      digits();
    bool integral = !negative;
    if (at('.')) {
      ++pos_;
      digits();
      integral = false;
    }
    if (at('e') || at('E')) {
      ++pos_;
      if (at('+') || at('-')) ++pos_;
      digits();
      integral = false;
    }
    // The grammar above already bounds the token, so strtod (exactly
    // rounded) reads a copy of just that span.
    const std::string token(text_.substr(start, pos_ - start));
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    v.number = std::strtod(token.c_str(), nullptr);
    if (!std::isfinite(v.number)) fail("number out of range");
    std::uint64_t exact = 0;
    if (integral &&
        std::from_chars(token.data(), token.data() + token.size(), exact).ec ==
            std::errc())
      v.uint = exact;
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double x) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), x);
  return ec == std::errc() ? std::string(buf, end) : std::string("0");
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::number_or(const std::string& key, double fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kNumber) ? v->number : fallback;
}

std::uint64_t JsonValue::u64_or(const std::string& key,
                                std::uint64_t fallback) const {
  const JsonValue* v = find(key);
  return v != nullptr && v->uint ? *v->uint : fallback;
}

std::string JsonValue::string_or(const std::string& key,
                                 const std::string& fallback) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->kind == Kind::kString) ? v->string : fallback;
}

JsonValue parse_json(std::string_view text) {
  return Parser(text).parse_document();
}

void JsonRecord::fail(const std::string& what) const {
  throw std::runtime_error(label + ": line " + std::to_string(line_no) +
                           ": " + what);
}

std::uint64_t JsonRecord::u64(const std::string& key) const {
  const JsonValue* v = value.find(key);
  if (v == nullptr || !v->uint)
    fail("\"" + key + "\" is not an unsigned integer");
  return *v->uint;
}

double JsonRecord::number(const std::string& key) const {
  const JsonValue* v = value.find(key);
  if (v == nullptr || !v->is_number()) fail("missing number \"" + key + "\"");
  return v->number;
}

const std::string& JsonRecord::string(const std::string& key) const {
  const JsonValue* v = value.find(key);
  if (v == nullptr || !v->is_string()) fail("missing string \"" + key + "\"");
  return v->string;
}

std::string jsonl_header(const std::string& kind, const std::string& magic,
                         const std::string& spec_digest) {
  return "{\"" + kind + "\": \"" + magic + "\", \"spec_digest\": \"" +
         json_escape(spec_digest) + "\"}\n";
}

JsonlReplay replay_jsonl(std::string_view text, const std::string& label,
                         const std::string& kind, const std::string& magic,
                         const std::string& expected_digest,
                         const std::function<void(const JsonRecord&)>& record) {
  JsonlReplay out;
  bool header_seen = false;
  const auto parse = [&](std::string_view line, std::size_t line_no) {
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const std::runtime_error&) {
      return false;  // replay_lines forgives this only on the last line.
    }
    const JsonRecord rec{doc, label, line_no};
    if (!doc.is_object()) rec.fail("not an object");
    if (header_seen) {
      record(rec);
      return true;
    }
    if (doc.string_or(kind) != magic)
      throw std::runtime_error(label +
                               ": missing or unknown header (expected \"" +
                               magic + "\")");
    out.spec_digest = doc.string_or("spec_digest");
    if (!expected_digest.empty() && out.spec_digest != expected_digest)
      throw std::runtime_error(
          label + ": spec digest mismatch: " + kind + " has " +
          out.spec_digest + ", campaign spec is " + expected_digest +
          " (refusing to mix results of different grids)");
    header_seen = true;
    return true;
  };
  out.dropped_partial = util::replay_lines(text, label, parse);
  return out;
}

}  // namespace solsched::obs
