#pragma once
// Minimal JSON parser for obs' own output formats (snapshot JSON,
// telemetry JSONL, chrome traces, BENCH_*.json payloads). The grammar is
// strict RFC 8259 — no leading '+', leading zeros, bare '.', or raw control
// characters in strings — so json_valid doubles as the well-formedness
// check of the trace round-trip test and the bench self-checks.
// Deliberately small — numbers are doubles, objects are sorted maps, no
// streaming — because every producer is our own code emitting modest
// documents.
//
// Header-only so the stco-perfdiff tool and the telemetry reader share one
// implementation without a new library target.

#include <cstdlib>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace stco::obs {

/// One parsed JSON value. kind tells which payload member is meaningful.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> arr;
  std::map<std::string, JsonValue> obj;

  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; nullptr when absent or not an object.
  const JsonValue* get(const std::string& key) const {
    if (kind != Kind::kObject) return nullptr;
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
  }
  /// Convenience: member as number, or `fallback` when absent/mistyped.
  double num_or(const std::string& key, double fallback) const {
    const JsonValue* v = get(key);
    return v && v->kind == Kind::kNumber ? v->number : fallback;
  }
};

namespace json_parse_detail {

struct Parser {
  std::string_view s;
  std::size_t i = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 256;

  bool eof() const { return i >= s.size(); }
  char peek() const { return s[i]; }

  void skip_ws() {
    while (!eof() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r'))
      ++i;
  }

  bool digit() const { return !eof() && s[i] >= '0' && s[i] <= '9'; }
  void skip_digits() {
    while (digit()) ++i;
  }

  bool literal(std::string_view word) {
    if (s.substr(i, word.size()) != word) return false;
    i += word.size();
    return true;
  }

  bool parse_string(std::string& out) {
    if (eof() || s[i] != '"') return false;
    ++i;
    out.clear();
    while (!eof()) {
      const char c = s[i++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        if (eof()) return false;
        const char e = s[i++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u': {
            if (i + 4 > s.size()) return false;
            unsigned code = 0;
            for (int k = 0; k < 4; ++k) {
              const char h = s[i++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
              else return false;
            }
            // Our producers only escape control characters; encode the
            // code point as UTF-8 without surrogate-pair handling.
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
          default: return false;
        }
      } else {
        out += c;
      }
    }
    return false;  // unterminated
  }

  /// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool parse_number(double& out) {
    const std::size_t start = i;
    if (!eof() && s[i] == '-') ++i;
    if (!digit()) return false;
    if (s[i] == '0') ++i;
    else skip_digits();
    if (!eof() && s[i] == '.') {
      ++i;
      if (!digit()) return false;
      skip_digits();
    }
    if (!eof() && (s[i] == 'e' || s[i] == 'E')) {
      ++i;
      if (!eof() && (s[i] == '+' || s[i] == '-')) ++i;
      if (!digit()) return false;
      skip_digits();
    }
    const std::string tok(s.substr(start, i - start));
    char* end = nullptr;
    out = std::strtod(tok.c_str(), &end);
    return end == tok.c_str() + tok.size();
  }

  bool parse_value(JsonValue& out) {
    if (++depth > kMaxDepth) return false;
    skip_ws();
    if (eof()) return --depth, false;
    bool ok = false;
    const char c = peek();
    if (c == '{') {
      ++i;
      out.kind = JsonValue::Kind::kObject;
      skip_ws();
      if (!eof() && peek() == '}') {
        ++i;
        ok = true;
      } else {
        while (true) {
          skip_ws();
          std::string key;
          if (!parse_string(key)) break;
          skip_ws();
          if (eof() || s[i] != ':') break;
          ++i;
          JsonValue child;
          if (!parse_value(child)) break;
          out.obj.emplace(std::move(key), std::move(child));
          skip_ws();
          if (!eof() && peek() == ',') {
            ++i;
            continue;
          }
          if (!eof() && peek() == '}') {
            ++i;
            ok = true;
          }
          break;
        }
      }
    } else if (c == '[') {
      ++i;
      out.kind = JsonValue::Kind::kArray;
      skip_ws();
      if (!eof() && peek() == ']') {
        ++i;
        ok = true;
      } else {
        while (true) {
          JsonValue child;
          if (!parse_value(child)) break;
          out.arr.push_back(std::move(child));
          skip_ws();
          if (!eof() && peek() == ',') {
            ++i;
            continue;
          }
          if (!eof() && peek() == ']') {
            ++i;
            ok = true;
          }
          break;
        }
      }
    } else if (c == '"') {
      out.kind = JsonValue::Kind::kString;
      ok = parse_string(out.str);
    } else if (c == 't') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = true;
      ok = literal("true");
    } else if (c == 'f') {
      out.kind = JsonValue::Kind::kBool;
      out.boolean = false;
      ok = literal("false");
    } else if (c == 'n') {
      out.kind = JsonValue::Kind::kNull;
      ok = literal("null");
    } else {
      out.kind = JsonValue::Kind::kNumber;
      ok = parse_number(out.number);
    }
    --depth;
    return ok;
  }
};

}  // namespace json_parse_detail

/// Parse one JSON document. Returns nullopt on any syntax error or if
/// non-whitespace trails the document.
inline std::optional<JsonValue> parse_json(std::string_view text) {
  json_parse_detail::Parser p{text};
  JsonValue v;
  if (!p.parse_value(v)) return std::nullopt;
  p.skip_ws();
  if (!p.eof()) return std::nullopt;
  return v;
}

/// True iff `text` is exactly one syntactically valid JSON value
/// (surrounding whitespace allowed).
inline bool json_valid(std::string_view text) { return parse_json(text).has_value(); }

}  // namespace stco::obs
