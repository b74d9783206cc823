#include "common/json.hpp"

#include <charconv>
#include <system_error>

namespace argus::json {

void put_string(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      out.append("\\u00");
      out.push_back(kHex[u >> 4]);
      out.push_back(kHex[u & 0xF]);
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
}

void put_number(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

namespace {

template <typename T>
std::optional<T> number_as(const Value& v) {
  if (!v.is(Value::Kind::kNumber)) return std::nullopt;
  const char* end = v.text.data() + v.text.size();
  T out{};
  const auto res = std::from_chars(v.text.data(), end, out);
  if (res.ec != std::errc{} || res.ptr != end) return std::nullopt;
  return out;
}

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  std::optional<Value> document() {
    Value v;
    skip_ws();
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after JSON value");
      return std::nullopt;
    }
    return v;
  }

 private:
  bool fail(const char* what) {
    if (error_ != nullptr) {
      *error_ = std::string(what) + " at offset " + std::to_string(pos_);
    }
    return false;
  }
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                   text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  bool consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  std::size_t digits() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
      ++pos_;
    }
    return pos_ - start;
  }

  bool value(Value& out, std::size_t depth) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return object(out, depth + 1);
      case '[': return array(out, depth + 1);
      case '"':
        out.kind = Value::Kind::kString;
        return string(out.text);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        return literal("false");
      case 'n': return literal("null");
      default: return number(out);
    }
  }

  bool literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return fail("bad literal");
    pos_ += lit.size();
    return true;
  }

  bool object(Value& out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    ++pos_;
    out.kind = Value::Kind::kObject;
    skip_ws();
    if (consume('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!string(key)) return false;
      skip_ws();
      if (!consume(':')) return fail("expected ':'");
      skip_ws();
      Value member;
      if (!value(member, depth)) return false;
      out.members.insert_or_assign(std::move(key), std::move(member));
      skip_ws();
      if (consume(',')) continue;
      if (consume('}')) return true;
      return fail("expected ',' or '}'");
    }
  }

  bool array(Value& out, std::size_t depth) {
    if (depth > kMaxDepth) return fail("nesting too deep");
    ++pos_;
    out.kind = Value::Kind::kArray;
    skip_ws();
    if (consume(']')) return true;
    while (true) {
      skip_ws();
      Value item;
      if (!value(item, depth)) return false;
      out.items.push_back(std::move(item));
      skip_ws();
      if (consume(',')) continue;
      if (consume(']')) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool string(std::string& out) {
    if (!consume('"')) return fail("expected string");
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (static_cast<unsigned char>(c) < 0x20) {
        return fail("unescaped control byte in string");
      }
      ++pos_;
      if (c == '"') return true;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
        case '\\':
        case '/': out.push_back(esc); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (text_.size() - pos_ < 4) return fail("truncated \\u escape");
          const char* hex = text_.data() + pos_;
          unsigned code = 0;
          const auto res = std::from_chars(hex, hex + 4, code, 16);
          if (res.ec != std::errc{} || res.ptr != hex + 4) {
            return fail("bad \\u escape");
          }
          if (code > 0xFF) return fail("\\u escape above 0xff");
          out.push_back(static_cast<char>(code));
          pos_ += 4;
          break;
        }
        default: return fail("bad escape");
      }
    }
    return fail("unterminated string");
  }

  // RFC 8259 grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
  bool number(Value& out) {
    const std::size_t start = pos_;
    consume('-');
    if (!consume('0') && digits() == 0) return fail("expected value");
    if (consume('.') && digits() == 0) return fail("expected fraction digits");
    if (consume('e') || consume('E')) {
      if (!consume('+')) consume('-');
      if (digits() == 0) return fail("expected exponent digits");
    }
    out.kind = Value::Kind::kNumber;
    out.text.assign(text_.substr(start, pos_ - start));
    return true;
  }

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<std::string_view> Value::as_string() const {
  if (!is(Kind::kString)) return std::nullopt;
  return text;
}

std::optional<double> Value::as_double() const { return number_as<double>(*this); }

std::optional<std::uint64_t> Value::as_u64() const {
  return number_as<std::uint64_t>(*this);
}

const Value* Value::find(std::string_view key) const {
  const auto it = members.find(key);
  return it == members.end() ? nullptr : &it->second;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  return Parser(text, error).document();
}

}  // namespace argus::json
