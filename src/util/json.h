// Minimal JSON value model, writer, and recursive-descent parser.
//
// The events module logs device events as JSON records in the 11-field
// schema the paper describes (Section V-A-1), and the log parser reads them
// back. We implement the small JSON subset needed for that round trip:
// objects, arrays, strings, numbers, booleans, and null, with standard
// escape handling.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace jarvis::util {

class JsonValue;

using JsonArray = std::vector<JsonValue>;
// std::map keeps keys ordered so serialized logs are deterministic.
using JsonObject = std::map<std::string, JsonValue>;

// Raised on malformed input or wrong-type access.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

// A JSON value: null, bool, number (double), string, array, or object.
//
// 24 bytes: scalars live inline; strings, arrays and objects live behind a
// shared_ptr. Copies share the pointee (copy is O(1)); MutableArray and
// MutableObject clone a shared container before handing out a mutable
// reference, so writing through a copy never changes the original.
// Strings are immutable once wrapped.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;
  JsonValue(bool b) : value_(std::in_place_type<bool>, b) {}          // NOLINT
  JsonValue(double d) : value_(std::in_place_type<double>, d) {}      // NOLINT
  JsonValue(int i)                                                    // NOLINT
      : value_(std::in_place_type<double>, static_cast<double>(i)) {}
  JsonValue(std::int64_t i)                                           // NOLINT
      : value_(std::in_place_type<double>, static_cast<double>(i)) {}
  JsonValue(const char* s) : JsonValue(std::string(s)) {}            // NOLINT
  JsonValue(std::string s);                                           // NOLINT
  JsonValue(JsonArray a);                                             // NOLINT
  JsonValue(JsonObject o);                                            // NOLINT

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  // Typed accessors; throw JsonError on type mismatch.
  bool AsBool() const;
  double AsNumber() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  const JsonObject& AsObject() const;
  JsonArray& MutableArray();
  JsonObject& MutableObject();

  // Object field lookup; throws JsonError if absent or not an object.
  const JsonValue& At(const std::string& key) const;
  // Returns fallback when the key is absent.
  double GetNumber(const std::string& key, double fallback) const;
  std::string GetString(const std::string& key, const std::string& fallback) const;

  // Serializes compactly (no whitespace). `indent` > 0 pretty-prints.
  // Integers below 1e15 print without a fraction; every other number
  // prints the bytes printf's "%.17g" gives, which parse back to the same
  // double. Numbers of magnitude in [1e-11, 1e17) take an exact integer
  // path; the rest go through std::to_chars.
  std::string Dump(int indent = 0) const;

  // Parses a complete JSON document; throws JsonError on malformed input:
  // numbers outside the RFC 8259 grammar or the double range, and
  // containers nested deeper than 64.
  static JsonValue Parse(const std::string& text);

  // Deep equality: containers and strings compare by content.
  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  // The alternatives are listed in Type order, so index() is the Type.
  std::variant<std::monostate, bool, double, std::shared_ptr<const std::string>,
               std::shared_ptr<JsonArray>, std::shared_ptr<JsonObject>>
      value_;
};

static_assert(sizeof(JsonValue) <= 24, "JsonValue must stay 24 bytes");

// Escapes a string for embedding in JSON output (adds surrounding quotes).
std::string JsonEscape(const std::string& raw);

}  // namespace jarvis::util
