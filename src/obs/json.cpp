#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>

namespace lmas::obs {

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no inf/nan; null is the least-surprising stand-in.
    out += "null";
    return;
  }
  // Integral values (counters, counts) print without a fraction.
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    out += buf;
    return;
  }
  char buf[32];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec == std::errc()) {
    out.append(buf, p);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += buf;
  }
}

struct Parser {
  std::string_view text;
  std::size_t pos = 0;
  int depth = 0;
  static constexpr int kMaxDepth = 128;

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  [[nodiscard]] bool eat(char c) {
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    return false;
  }

  [[nodiscard]] bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) == word) {
      pos += word.size();
      return true;
    }
    return false;
  }

  std::optional<std::string> parse_string() {
    if (!eat('"')) return std::nullopt;
    std::string out;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos >= text.size()) return std::nullopt;
        const char e = text[pos++];
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
            if (pos + 4 > text.size()) return std::nullopt;
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text[pos++];
              code <<= 4;
              if (h >= '0' && h <= '9') code |= unsigned(h - '0');
              else if (h >= 'a' && h <= 'f') code |= unsigned(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code |= unsigned(h - 'A' + 10);
              else return std::nullopt;
            }
            // UTF-8 encode the BMP code point (surrogate pairs land as
            // two 3-byte sequences; fine for diagnostics).
            if (code < 0x80) {
              out += char(code);
            } else if (code < 0x800) {
              out += char(0xc0 | (code >> 6));
              out += char(0x80 | (code & 0x3f));
            } else {
              out += char(0xe0 | (code >> 12));
              out += char(0x80 | ((code >> 6) & 0x3f));
              out += char(0x80 | (code & 0x3f));
            }
            break;
          }
          default: return std::nullopt;
        }
      } else {
        out += c;
      }
    }
    return std::nullopt;  // unterminated
  }

  std::optional<Json> parse_value() {
    if (depth >= kMaxDepth) return std::nullopt;
    skip_ws();
    if (pos >= text.size()) return std::nullopt;
    const char c = text[pos];
    if (c == 'n') return literal("null") ? std::optional<Json>(Json())
                                         : std::nullopt;
    if (c == 't') return literal("true") ? std::optional<Json>(Json(true))
                                         : std::nullopt;
    if (c == 'f') return literal("false") ? std::optional<Json>(Json(false))
                                          : std::nullopt;
    if (c == '"') {
      auto s = parse_string();
      if (!s) return std::nullopt;
      return Json(std::move(*s));
    }
    if (c == '[') {
      ++pos;
      ++depth;
      Json arr = Json::array();
      skip_ws();
      if (eat(']')) {
        --depth;
        return arr;
      }
      while (true) {
        auto v = parse_value();
        if (!v) return std::nullopt;
        arr.push_back(std::move(*v));
        skip_ws();
        if (eat(']')) break;
        if (!eat(',')) return std::nullopt;
      }
      --depth;
      return arr;
    }
    if (c == '{') {
      ++pos;
      ++depth;
      Json obj = Json::object();
      skip_ws();
      if (eat('}')) {
        --depth;
        return obj;
      }
      // A repeated key overwrites the value at its first position. The
      // key -> position index keeps the parse linear in the member count
      // (Json's own operator[] scans).
      std::vector<std::pair<std::string, Json>> members;
      std::unordered_map<std::string, std::size_t> index;
      while (true) {
        skip_ws();
        auto key = parse_string();
        if (!key) return std::nullopt;
        skip_ws();
        if (!eat(':')) return std::nullopt;
        auto v = parse_value();
        if (!v) return std::nullopt;
        const auto [it, fresh] = index.try_emplace(*key, members.size());
        if (fresh) {
          members.emplace_back(std::move(*key), std::move(*v));
        } else {
          members[it->second].second = std::move(*v);
        }
        skip_ws();
        if (eat('}')) break;
        if (!eat(',')) return std::nullopt;
      }
      for (auto& [k, v] : members) obj.append(std::move(k), std::move(v));
      --depth;
      return obj;
    }
    // number
    const std::size_t start = pos;
    if (c == '-') ++pos;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '.' || text[pos] == 'e' || text[pos] == 'E' ||
            text[pos] == '+' || text[pos] == '-')) {
      ++pos;
    }
    if (pos == start) return std::nullopt;
    double v = 0;
    const auto [p, ec] =
        std::from_chars(text.data() + start, text.data() + pos, v);
    if (ec != std::errc() || p != text.data() + pos) return std::nullopt;
    return Json(v);
  }
};

}  // namespace

const Json& Json::at(std::string_view key) const {
  const Json* v = find(key);
  if (!v) throw std::out_of_range("Json::at: no member '" + std::string(key) +
                                  "'");
  return *v;
}

void Json::dump_to(std::string& out, int indent, int depth) const {
  const bool pretty = indent >= 0;
  const auto newline = [&](int d) {
    if (pretty) {
      out += '\n';
      out.append(std::size_t(indent) * std::size_t(d), ' ');
    }
  };
  switch (type_) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += bool_ ? "true" : "false"; break;
    case Type::Number: append_number(out, num_); break;
    case Type::String: append_escaped(out, str_); break;
    case Type::Array: {
      if (arr_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      for (std::size_t i = 0; i < arr_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        arr_[i].dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += ']';
      break;
    }
    case Type::Object: {
      if (obj_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      for (std::size_t i = 0; i < obj_.size(); ++i) {
        if (i) out += ',';
        newline(depth + 1);
        append_escaped(out, obj_[i].first);
        out += pretty ? ": " : ":";
        obj_[i].second.dump_to(out, indent, depth + 1);
      }
      newline(depth);
      out += '}';
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

std::optional<Json> Json::parse(std::string_view text) {
  Parser p{text};
  auto v = p.parse_value();
  if (!v) return std::nullopt;
  p.skip_ws();
  if (p.pos != text.size()) return std::nullopt;  // trailing garbage
  return v;
}

}  // namespace lmas::obs
