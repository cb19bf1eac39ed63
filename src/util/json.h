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
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool b) : type_(Type::kBool), bool_(b) {}                 // NOLINT
  JsonValue(double d) : type_(Type::kNumber), number_(d) {}           // NOLINT
  JsonValue(int i) : type_(Type::kNumber), number_(i) {}              // NOLINT
  JsonValue(std::int64_t i)                                           // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(i)) {}
  JsonValue(const char* s) : type_(Type::kString), string_(s) {}      // NOLINT
  JsonValue(std::string s)                                            // NOLINT
      : type_(Type::kString), string_(std::move(s)) {}
  JsonValue(JsonArray a);                                             // NOLINT
  JsonValue(JsonObject o);                                            // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

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
  // Integers below 1e15 print without a fraction; other numbers print the
  // bytes printf's "%.17g" gives, which parse back to the same double.
  std::string Dump(int indent = 0) const;

  // Parses a complete JSON document; throws JsonError on malformed input:
  // numbers outside the RFC 8259 grammar or the double range, and
  // containers nested deeper than 64.
  static JsonValue Parse(const std::string& text);

  bool operator==(const JsonValue& other) const;

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::shared_ptr<JsonArray> array_;
  std::shared_ptr<JsonObject> object_;
};

// Escapes a string for embedding in JSON output (adds surrounding quotes).
std::string JsonEscape(const std::string& raw);

}  // namespace jarvis::util
