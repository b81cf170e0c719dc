// A minimal JSON reader for the driver's own interchange files.
//
// The sweep runner writes results as JSON (driver/sweep_runner.cpp) and
// `macosim store import` reads them back into a campaign store; committed
// benchmark trajectories (BENCH_*.json) ride the same format through CI.
// This parser covers exactly RFC 8259 — objects, arrays, strings with
// escapes, numbers, true/false/null — with positions in error messages.
// It deliberately has no writer half: serialization stays with the code
// that owns each format, so there is exactly one writer per format. The
// one shared piece is json_escape below, because string escaping must be
// identical in every writer for this parser to read them all back.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace maco::util {

// One parsed JSON value. A tagged tree rather than a class hierarchy: the
// driver walks small documents (sweep results, benchmark trajectories)
// where simplicity beats pointer-chasing polymorphism.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  // Checked accessors; throw std::runtime_error naming the expected and
  // actual kind, so import errors point at the malformed field.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const std::vector<JsonValue>& as_array() const;
  // Object members in document order (duplicate keys keep every entry;
  // find() returns the first).
  const std::vector<std::pair<std::string, JsonValue>>& as_object() const;

  // nullptr when this is not an object or has no member `key`.
  const JsonValue* find(std::string_view key) const noexcept;

  static JsonValue null();
  static JsonValue boolean(bool value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue array(std::vector<JsonValue> items);
  static JsonValue object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> object_;
};

// Deepest array/object nesting parse_json accepts. The parser recurses
// once per level, so an unbounded depth lets a hostile file overflow the
// stack; real interchange documents nest a handful of levels.
inline constexpr std::size_t kMaxJsonDepth = 256;

// Thrown by parse_json for malformed input and for nesting deeper than
// kMaxJsonDepth; `offset()` is the byte where parsing stopped.
class JsonParseError : public std::runtime_error {
 public:
  JsonParseError(const std::string& what, std::size_t offset)
      : std::runtime_error(what), offset_(offset) {}
  std::size_t offset() const noexcept { return offset_; }

 private:
  std::size_t offset_;
};

// Parses one JSON document; trailing whitespace is allowed, trailing
// content is not. Throws JsonParseError, with a byte offset, on malformed
// or too deeply nested input.
JsonValue parse_json(std::string_view text);

// JSON string-body escaping (quotes, backslash, control characters);
// shared by every JSON writer in the tree.
std::string json_escape(const std::string& text);

}  // namespace maco::util
