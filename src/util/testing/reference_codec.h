// Reference implementations of the checkpoint codec's hot spots, used as
// exact-equality oracles in tests (tests/util_json_test.cpp,
// tests/util_io_test.cpp) and as the "old" side of the serialization A/B
// in bench/bench_kernels.cpp.
//
// These keep the pre-optimization code shape on purpose: numbers written
// with snprintf("%.17g"), numbers read by strtod over a substr copy, a
// permissive number scan, and the bytewise table CRC. The production code
// (util/json.cpp with its exact integer writer, std::to_chars and
// std::from_chars, util/io.cpp with slicing-by-8) must match them byte
// for byte and bit for bit.
//
// Header-only and test/bench-scoped: nothing under src/ outside this
// directory may include it.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "util/json.h"

namespace jarvis::util::testing {

// The pre-to_chars number writer: integers below 1e15 via llround, the
// rest via "%.17g".
inline void ReferenceAppendNumber(std::string& out, double value) {
  if (value == static_cast<double>(std::llround(value)) &&
      std::fabs(value) < 1e15) {
    out += std::to_string(std::llround(value));
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  out += buf;
}

inline std::string ReferenceFormatNumber(double value) {
  std::string out;
  ReferenceAppendNumber(out, value);
  return out;
}

// strtod over a whole token. Unlike std::stod it returns subnormals
// instead of throwing ERANGE, so it is the value oracle for every token
// the writer emits.
inline double ReferenceReadNumber(const std::string& token) {
  return std::strtod(token.c_str(), nullptr);
}

// Compact Dump in the writer's pre-to_chars shape.
inline void ReferenceDumpTo(const JsonValue& value, std::string& out) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      break;
    case JsonValue::Type::kBool:
      out += value.AsBool() ? "true" : "false";
      break;
    case JsonValue::Type::kNumber:
      ReferenceAppendNumber(out, value.AsNumber());
      break;
    case JsonValue::Type::kString:
      out += JsonEscape(value.AsString());
      break;
    case JsonValue::Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const auto& item : value.AsArray()) {
        if (!first) out.push_back(',');
        first = false;
        ReferenceDumpTo(item, out);
      }
      out.push_back(']');
      break;
    }
    case JsonValue::Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, item] : value.AsObject()) {
        if (!first) out.push_back(',');
        first = false;
        out += JsonEscape(key);
        out.push_back(':');
        ReferenceDumpTo(item, out);
      }
      out.push_back('}');
      break;
    }
  }
}

inline std::string ReferenceDump(const JsonValue& value) {
  std::string out;
  ReferenceDumpTo(value, out);
  return out;
}

// The pre-from_chars recursive-descent parser for well-formed documents:
// numbers are scanned permissively and converted from a substr copy.
// Strings handle the single-character escapes only; it throws JsonError
// on anything it does not understand.
class ReferenceParser {
 public:
  explicit ReferenceParser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) throw JsonError("reference: trailing bytes");
    return value;
  }

 private:
  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\r' || text_[pos_] == '\t')) {
      ++pos_;
    }
  }

  char Take() {
    if (pos_ >= text_.size()) throw JsonError("reference: end of input");
    return text_[pos_++];
  }

  bool TakeIf(char c) {
    SkipWhitespace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void Expect(char c) {
    if (!TakeIf(c)) throw JsonError(std::string("reference: expected ") + c);
  }

  void ExpectLiteral(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      throw JsonError("reference: bad literal");
    }
    pos_ += literal.size();
  }

  JsonValue ParseValue() {
    SkipWhitespace();
    if (pos_ >= text_.size()) throw JsonError("reference: end of input");
    switch (text_[pos_]) {
      case '{': {
        ++pos_;
        JsonObject obj;
        if (TakeIf('}')) return JsonValue(std::move(obj));
        do {
          SkipWhitespace();
          std::string key = ParseString();
          Expect(':');
          obj.emplace(std::move(key), ParseValue());
        } while (TakeIf(','));
        Expect('}');
        return JsonValue(std::move(obj));
      }
      case '[': {
        ++pos_;
        JsonArray arr;
        if (TakeIf(']')) return JsonValue(std::move(arr));
        do {
          arr.push_back(ParseValue());
        } while (TakeIf(','));
        Expect(']');
        return JsonValue(std::move(arr));
      }
      case '"':
        return JsonValue(ParseString());
      case 't':
        ExpectLiteral("true");
        return JsonValue(true);
      case 'f':
        ExpectLiteral("false");
        return JsonValue(false);
      case 'n':
        ExpectLiteral("null");
        return JsonValue();
      default:
        return ParseNumber();
    }
  }

  std::string ParseString() {
    if (Take() != '"') throw JsonError("reference: expected a string");
    std::string out;
    for (char c = Take(); c != '"'; c = Take()) {
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      switch (const char esc = Take()) {
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case '"':
        case '\\':
        case '/':
          out.push_back(esc);
          break;
        default:
          throw JsonError("reference: unsupported escape");
      }
    }
    return out;
  }

  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           std::string_view("0123456789.eE+-").find(text_[pos_]) !=
               std::string_view::npos) {
      ++pos_;
    }
    if (pos_ == start) throw JsonError("reference: expected a value");
    return JsonValue(ReferenceReadNumber(text_.substr(start, pos_ - start)));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

inline JsonValue ReferenceParse(const std::string& text) {
  return ReferenceParser(text).ParseDocument();
}

// The bytewise table CRC-32 (reflected polynomial 0xEDB88320).
constexpr std::array<std::uint32_t, 256> MakeReferenceCrcTable() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t n = 0; n < 256; ++n) {
    std::uint32_t c = n;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[n] = c;
  }
  return table;
}

inline constexpr std::array<std::uint32_t, 256> kReferenceCrcTable =
    MakeReferenceCrcTable();

inline std::uint32_t ReferenceCrc32(const void* data, std::size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint32_t crc = 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i) {
    crc = kReferenceCrcTable[(crc ^ bytes[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

}  // namespace jarvis::util::testing
