// The one JSON codec for every artifact the repo writes or reads: trace
// JSONL and Chrome exports, sweep lines, report digests, profiler dumps
// and bench trajectories.
//
// Writer: put_string / put_number append to a std::string. Strings escape
// `"` and `\` with a backslash and bytes below 0x20 as \u00xx (lowercase
// hex); every other byte is copied raw. Numbers use the shortest
// std::to_chars form, so identical values always give identical bytes and
// reading them back recovers the exact double.
//
// Reader: parse() is total — any byte string maps to a Value or to nullopt
// plus an error message, never a throw or a crash. Nesting is bounded by
// kMaxDepth. A number keeps its source text and is converted on demand
// (as_double / as_u64), so full-range u64s survive where a stored double
// would round them above 2^53. \u escapes must be exactly four hex digits
// naming a value <= 0xFF, which decodes to that byte — the writer's own
// range; anything else is rejected.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace argus::json {

/// Append `s` as a quoted, escaped JSON string.
void put_string(std::string& out, std::string_view s);
/// Append the shortest text that reads back as exactly `v`.
void put_number(std::string& out, double v);

/// Deepest array/object nesting parse() accepts. The deepest document the
/// repo writes (a bench trajectory) nests five levels.
inline constexpr std::size_t kMaxDepth = 64;

struct Value {
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  Kind kind = Kind::kNull;
  bool boolean = false;
  /// kString: the decoded bytes. kNumber: the source text.
  std::string text;
  std::vector<Value> items;
  /// Duplicate keys keep the last value.
  std::map<std::string, Value, std::less<>> members;

  [[nodiscard]] bool is(Kind k) const { return kind == k; }
  [[nodiscard]] std::optional<std::string_view> as_string() const;
  [[nodiscard]] std::optional<double> as_double() const;
  /// Nullopt unless the number is a plain non-negative integer <= 2^64-1.
  [[nodiscard]] std::optional<std::uint64_t> as_u64() const;
  /// The member named `key` of an object, or null.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

/// Parse one JSON document (surrounding whitespace allowed, nothing else).
/// On failure returns nullopt and, if `error` is non-null, sets it to
/// "<what> at offset <n>".
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

}  // namespace argus::json
