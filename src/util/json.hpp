// The one JSON codec behind every format this repo writes or reads: the
// colex-trace-v1 and colex-repro-v1 line formats, the metrics snapshot, the
// Chrome trace export, BENCH_*.json and `colex-lint --json`.
//
//  * write_string() is the only escaper. It writes \" \\ \n \t, every other
//    byte below 0x20 as \u00xx, and passes every other byte through, so a
//    string without such a byte is written verbatim between its quotes.
//  * Object is the only reader: one pass of a cursor over a JSON object
//    (one JSONL line) that keeps each top-level member's value as its raw
//    text. Lookups see only top-level keys, so a nested "n" never shadows
//    the real one, and a nested value (a trace's metrics snapshot) comes
//    back as a verbatim slice. decode() turns a raw value into a string,
//    number, flag or array; it undoes every escape write_string() emits.
//    Malformed input throws util::ContractViolation.
//
//   std::ostringstream os;
//   os << "{\"name\":";
//   json::write_string(os, "a\"b");            // {"name":"a\"b"
//   const json::Object obj(R"({"n":3,"ids":[1,2]})");
//   const auto n = obj.at<std::uint64_t>("n");  // 3
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/contracts.hpp"

namespace colex::util::json {

/// Writes `s` as a quoted JSON string.
inline void write_string(std::ostream& os, std::string_view s) {
  constexpr char kHex[] = "0123456789abcdef";
  os << '"';
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      default:
        if (byte < 0x20) {
          os << "\\u00" << kHex[byte >> 4] << kHex[byte & 0xF];
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Writes unsigned integers, or flags as 0/1, as a JSON array: [1,0,7].
template <typename Range>
void write_uints(std::ostream& os, const Range& xs) {
  os << '[';
  bool first = true;
  for (const auto x : xs) {
    if (!first) os << ',';
    first = false;
    os << static_cast<std::uint64_t>(x);
  }
  os << ']';
}

namespace detail {

/// Forward-only cursor over one JSON text. Every method skips leading
/// whitespace and throws on anything that is not JSON.
class Cursor {
 public:
  explicit Cursor(std::string_view text) : s_(text) {}

  /// Steps past `c` if it is the next byte.
  bool consume(char c) {
    skip_space();
    if (i_ == s_.size() || s_[i_] != c) return false;
    ++i_;
    return true;
  }

  void expect(char c) { COLEX_EXPECTS(consume(c)); }

  /// `open`, then `item()` once per comma-separated element, then `close`.
  template <typename F>
  void list(char open, char close, F&& item) {
    expect(open);
    if (consume(close)) return;
    do item();
    while (consume(','));
    expect(close);
  }

  /// One quoted string, undoing write_string(): \" \\ \n \t and \u
  /// escapes of ASCII code points. Raw bytes other than '"' and '\' are
  /// taken as they are.
  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      COLEX_EXPECTS(i_ < s_.size());
      const char c = s_[i_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      COLEX_EXPECTS(i_ < s_.size());
      switch (s_[i_++]) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 't': out += '\t'; break;
        case 'u': {
          COLEX_EXPECTS(s_.size() - i_ >= 4);
          unsigned code = 0;
          const char* const end = s_.data() + i_ + 4;
          const auto [ptr, ec] = std::from_chars(s_.data() + i_, end, code, 16);
          COLEX_EXPECTS(ec == std::errc() && ptr == end && code < 0x80);
          out += static_cast<char>(code);
          i_ += 4;
          break;
        }
        default:
          contract_fail("precondition", "a JSON escape", __FILE__, __LINE__);
      }
    }
  }

  /// One value of any kind, checked and returned as its raw text.
  std::string_view value() {
    skip_space();
    const std::size_t begin = i_;
    COLEX_EXPECTS(i_ < s_.size());
    if (s_[i_] == '"') {
      string();
    } else if (s_[i_] == '{') {
      list('{', '}', [this] {
        string();
        expect(':');
        value();
      });
    } else if (s_[i_] == '[') {
      list('[', ']', [this] { value(); });
    } else {
      while (i_ < s_.size() && scalar_byte(s_[i_])) ++i_;
      const std::string_view token = s_.substr(begin, i_ - begin);
      COLEX_EXPECTS(token == "true" || token == "false" || token == "null" ||
                    is_number(token));
    }
    return s_.substr(begin, i_ - begin);
  }

  /// Throws unless only whitespace is left.
  void finish() {
    skip_space();
    COLEX_EXPECTS(i_ == s_.size());
  }

 private:
  static bool is_number(std::string_view token) {
    double v = 0;
    const char* const end = token.data() + token.size();
    return !token.empty() && std::from_chars(token.data(), end, v).ptr == end;
  }

  static bool scalar_byte(char c) {
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
           (c >= 'A' && c <= 'Z') || c == '-' || c == '+' || c == '.';
  }

  void skip_space() {
    while (i_ < s_.size() &&
           (s_[i_] == ' ' || s_[i_] == '\t' || s_[i_] == '\n' ||
            s_[i_] == '\r')) {
      ++i_;
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

}  // namespace detail

// --- decoding one raw value --------------------------------------------

inline void decode(std::string_view raw, std::string& out) {
  detail::Cursor c(raw);
  out = c.string();
  c.finish();
}

/// Flags are written as 0/1 (write_uints), so they read back only as 0/1.
inline void decode(std::string_view raw, bool& out) {
  COLEX_EXPECTS(raw == "0" || raw == "1");
  out = raw == "1";
}

template <std::unsigned_integral T>
  requires(!std::same_as<T, bool>)
void decode(std::string_view raw, T& out) {
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, out);
  COLEX_EXPECTS(ec == std::errc() && ptr == end);
}

inline void decode(std::string_view raw, double& out) {
  const char* const end = raw.data() + raw.size();
  const auto [ptr, ec] = std::from_chars(raw.data(), end, out);
  COLEX_EXPECTS(ec == std::errc() && ptr == end);
}

template <typename T>
void decode(std::string_view raw, std::vector<T>& out) {
  detail::Cursor c(raw);
  out.clear();
  c.list('[', ']', [&] {
    T item{};
    decode(c.value(), item);
    out.push_back(item);
  });
  c.finish();
}

template <typename T>
T as(std::string_view raw) {
  T out{};
  decode(raw, out);
  return out;
}

// --- one object, top-level members only --------------------------------

class Object {
 public:
  using Member = std::pair<std::string, std::string_view>;

  /// Parses `text`, which must be exactly one JSON object. The members'
  /// raw values point into `text`, which must outlive this Object.
  explicit Object(std::string_view text) {
    detail::Cursor c(text);
    c.list('{', '}', [&] {
      std::string key = c.string();
      c.expect(':');
      members_.emplace_back(std::move(key), c.value());
    });
    c.finish();
  }

  /// In document order.
  const std::vector<Member>& members() const { return members_; }

  /// Raw value of the first member named `key`, or nullptr.
  const std::string_view* find(std::string_view key) const {
    for (const Member& m : members_) {
      if (m.first == key) return &m.second;
    }
    return nullptr;
  }

  /// Raw value of a member that must be present.
  std::string_view raw(std::string_view key) const {
    const std::string_view* value = find(key);
    COLEX_EXPECTS(value != nullptr);
    return *value;
  }

  /// Decodes a member that must be present.
  template <typename T>
  T at(std::string_view key) const {
    return as<T>(raw(key));
  }

  /// Decodes an optional member into `out`; false, leaving `out` as it
  /// was, when the member is absent.
  template <typename T>
  bool get(std::string_view key, T& out) const {
    const std::string_view* value = find(key);
    if (value == nullptr) return false;
    decode(*value, out);
    return true;
  }

 private:
  std::vector<Member> members_;
};

}  // namespace colex::util::json
