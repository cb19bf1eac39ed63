#include "util/json.h"

#include <array>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <system_error>
#include <type_traits>

#include "util/check.h"

namespace jarvis::util {

JsonValue::JsonValue(std::string s)
    : value_(std::make_shared<const std::string>(std::move(s))) {}

JsonValue::JsonValue(JsonArray a)
    : value_(std::make_shared<JsonArray>(std::move(a))) {}

JsonValue::JsonValue(JsonObject o)
    : value_(std::make_shared<JsonObject>(std::move(o))) {}

bool JsonValue::AsBool() const {
  if (const bool* b = std::get_if<bool>(&value_)) return *b;
  throw JsonError("not a bool");
}

double JsonValue::AsNumber() const {
  if (const double* d = std::get_if<double>(&value_)) return *d;
  throw JsonError("not a number");
}

std::int64_t JsonValue::AsInt() const {
  return static_cast<std::int64_t>(std::llround(AsNumber()));
}

const std::string& JsonValue::AsString() const {
  if (const auto* s = std::get_if<std::shared_ptr<const std::string>>(&value_)) {
    return **s;
  }
  throw JsonError("not a string");
}

const JsonArray& JsonValue::AsArray() const {
  if (const auto* a = std::get_if<std::shared_ptr<JsonArray>>(&value_)) {
    return **a;
  }
  throw JsonError("not an array");
}

const JsonObject& JsonValue::AsObject() const {
  if (const auto* o = std::get_if<std::shared_ptr<JsonObject>>(&value_)) {
    return **o;
  }
  throw JsonError("not an object");
}

JsonArray& JsonValue::MutableArray() {
  auto* a = std::get_if<std::shared_ptr<JsonArray>>(&value_);
  if (a == nullptr) throw JsonError("not an array");
  if (a->use_count() > 1) *a = std::make_shared<JsonArray>(**a);
  return **a;
}

JsonObject& JsonValue::MutableObject() {
  auto* o = std::get_if<std::shared_ptr<JsonObject>>(&value_);
  if (o == nullptr) throw JsonError("not an object");
  if (o->use_count() > 1) *o = std::make_shared<JsonObject>(**o);
  return **o;
}

const JsonValue& JsonValue::At(const std::string& key) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end()) throw JsonError("missing key: " + key);
  return it->second;
}

double JsonValue::GetNumber(const std::string& key, double fallback) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_number()) return fallback;
  return it->second.AsNumber();
}

std::string JsonValue::GetString(const std::string& key,
                                 const std::string& fallback) const {
  const auto& obj = AsObject();
  auto it = obj.find(key);
  if (it == obj.end() || !it->second.is_string()) return fallback;
  return it->second.AsString();
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (value_.index() != other.value_.index()) return false;
  return std::visit(
      [&other](const auto& mine) {
        using T = std::decay_t<decltype(mine)>;
        const T& theirs = std::get<T>(other.value_);
        if constexpr (std::is_scalar_v<T> ||
                      std::is_same_v<T, std::monostate>) {
          return mine == theirs;
        } else {
          return *mine == *theirs;
        }
      },
      value_);
}

namespace {

// Appends `raw` quoted and escaped, copying runs that need no escape in
// one append.
void AppendEscaped(std::string& out, std::string_view raw) {
  static constexpr char kHex[] = "0123456789abcdef";
  out.push_back('"');
  std::size_t run = 0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const char c = raw[i];
    const char* escape = nullptr;
    switch (c) {
      case '"':
        escape = "\\\"";
        break;
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\r':
        escape = "\\r";
        break;
      case '\t':
        escape = "\\t";
        break;
      case '\b':
        escape = "\\b";
        break;
      case '\f':
        escape = "\\f";
        break;
      default:
        if (static_cast<unsigned char>(c) >= 0x20) continue;
    }
    out.append(raw.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out += escape;
    } else {
      const char unicode[] = {'\\', 'u', '0', '0', kHex[(c >> 4) & 0xF],
                              kHex[c & 0xF]};
      out.append(unicode, sizeof unicode);
    }
  }
  out.append(raw.data() + run, raw.size() - run);
  out.push_back('"');
}

}  // namespace

std::string JsonEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 2);
  AppendEscaped(out, raw);
  return out;
}

namespace {

constexpr std::array<std::uint64_t, 28> MakePowersOfFive() {
  std::array<std::uint64_t, 28> powers{};
  std::uint64_t p = 1;
  for (auto& power : powers) {
    power = p;
    p *= 5;
  }
  return powers;
}

// 5^q for the exact path's q in [0, 27]; 5^27 < 2^63, so a 53-bit
// mantissa times 5^q fits in 116 bits.
constexpr std::array<std::uint64_t, 28> kPowersOfFive = MakePowersOfFive();

constexpr std::uint64_t kTen16 = 10'000'000'000'000'000ULL;
constexpr std::uint64_t kTen17 = 100'000'000'000'000'000ULL;

constexpr std::array<char, 200> MakeDigitPairs() {
  std::array<char, 200> pairs{};
  for (std::size_t i = 0; i < 100; ++i) {
    pairs[2 * i] = static_cast<char>('0' + i / 10);
    pairs[2 * i + 1] = static_cast<char>('0' + i % 10);
  }
  return pairs;
}

constexpr std::array<char, 200> kDigitPairs = MakeDigitPairs();

// Writes v < 10^8 as exactly 8 digits, two at a time. Writing all 17
// digits with one std::to_chars measured about 10 ns more per number (some
// 12% of dumping a dqn section; GCC 12, 4-vCPU Xeon).
void WriteEightDigits(char* out, std::uint32_t v) {
  const std::uint32_t high = v / 10000;
  const std::uint32_t low = v % 10000;
  std::memcpy(out, &kDigitPairs[2 * (high / 100)], 2);
  std::memcpy(out + 2, &kDigitPairs[2 * (high % 100)], 2);
  std::memcpy(out + 4, &kDigitPairs[2 * (low / 100)], 2);
  std::memcpy(out + 6, &kDigitPairs[2 * (low % 100)], 2);
}

// The 17 significant digits of a double, correctly rounded: the value is
// digits * 10^(exponent - 16), with digits in [10^16, 10^17).
struct Decimal17 {
  std::uint64_t digits;
  int exponent;
};

// Computes |value|'s 17 significant digits exactly, in integer arithmetic,
// when |value| is a normal double with floor(log10|value|) in [-11, 16],
// that is |value| in about [1e-11, 1e17). With |value| = M * 2^E and
// q = 16 - floor(log10|value|), the digits are M * 5^q * 2^(E+q) rounded
// half to even, and M * 5^q is exact in 128 bits for q <= 27. Returns
// false outside that range.
bool ExactSeventeenDigits(double value, Decimal17& result) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  const int biased = static_cast<int>((bits >> 52) & 0x7FF);
  if (biased == 0 || biased == 0x7FF) return false;  // zero, subnormal, inf
  const std::uint64_t mantissa = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
  const int binary_exponent = biased - 1075;  // |value| = mantissa * 2^this
  // |value| lies in [2^(biased-1023), 2^(biased-1022)), so its decimal
  // exponent is floor((biased-1023) * log10(2)) or one more; 78913 / 2^18
  // gives that floor exactly over the whole double range.
  int exponent = ((biased - 1023) * 78913) >> 18;
  for (int attempt = 0; attempt < 2; ++attempt, ++exponent) {
    const int q = 16 - exponent;
    if (q < 0 || q >= static_cast<int>(kPowersOfFive.size())) return false;
    const unsigned __int128 scaled =
        static_cast<unsigned __int128>(mantissa) *
        kPowersOfFive[static_cast<std::size_t>(q)];
    const int shift = binary_exponent + q;
    // For q in [0, 27] the shift stays in [-64, 4]: scaled < 2^116 can
    // move left that far, and a right shift drops fewer than 128 bits.
    JARVIS_DCHECK(shift >= -64 && shift <= 4);
    unsigned __int128 digits;
    if (shift >= 0) {
      digits = scaled << shift;  // |value| * 10^q is an integer
    } else {
      const int drop = -shift;
      digits = scaled >> drop;
      const unsigned __int128 rest = scaled - (digits << drop);
      const unsigned __int128 half = static_cast<unsigned __int128>(1)
                                     << (drop - 1);
      if (rest > half || (rest == half && (digits & 1) != 0)) ++digits;
    }
    // Rounding up to 10^17 means the value prints as 1.0000...e(k+1):
    // the next attempt's digits round to exactly 10^16.
    if (digits >= kTen17) continue;
    if (digits < kTen16) return false;
    result = {static_cast<std::uint64_t>(digits), exponent};
    return true;
  }
  return false;
}

// Lays out 17 significant digits as printf's "%.17g": fixed notation when
// the exponent is at least -4, otherwise d.ddde-XX; trailing zeros of the
// fraction and a bare decimal point are dropped. ExactSeventeenDigits only
// yields exponents in [-11, 16], so "%.17g"'s positive exponent form (17
// and up) and three-digit exponents never occur here.
void AppendGeneral17(std::string& out, bool negative, Decimal17 decimal) {
  const int exponent = decimal.exponent;
  JARVIS_DCHECK(exponent >= -11 && exponent <= 16);
  char digits[17];
  const std::uint64_t rest = decimal.digits % kTen16;
  digits[0] = static_cast<char>('0' + decimal.digits / kTen16);
  WriteEightDigits(digits + 1, static_cast<std::uint32_t>(rest / 100000000));
  WriteEightDigits(digits + 9, static_cast<std::uint32_t>(rest % 100000000));
  int count = 17;
  while (digits[count - 1] == '0') --count;  // digits[0] is never '0'

  char buf[40];
  char* p = buf;
  if (negative) *p++ = '-';
  if (exponent >= 0) {
    const int integer_digits = exponent + 1;
    if (count <= integer_digits) {
      std::memcpy(p, digits, static_cast<std::size_t>(count));
      p += count;
      std::memset(p, '0', static_cast<std::size_t>(integer_digits - count));
      p += integer_digits - count;
    } else {
      std::memcpy(p, digits, static_cast<std::size_t>(integer_digits));
      p += integer_digits;
      *p++ = '.';
      std::memcpy(p, digits + integer_digits,
                  static_cast<std::size_t>(count - integer_digits));
      p += count - integer_digits;
    }
  } else if (exponent >= -4) {
    *p++ = '0';
    *p++ = '.';
    std::memset(p, '0', static_cast<std::size_t>(-exponent - 1));
    p += -exponent - 1;
    std::memcpy(p, digits, static_cast<std::size_t>(count));
    p += count;
  } else {
    *p++ = digits[0];
    if (count > 1) {
      *p++ = '.';
      std::memcpy(p, digits + 1, static_cast<std::size_t>(count - 1));
      p += count - 1;
    }
    *p++ = 'e';
    *p++ = '-';
    *p++ = static_cast<char>('0' + -exponent / 10);
    *p++ = static_cast<char>('0' + -exponent % 10);
  }
  out.append(buf, p);
}

// Integers of magnitude below 1e15 print as integers (the digits "%.17g"
// prints, except that -0 prints as "0"); every other double prints exactly
// as "%.17g" would, which round-trips every finite double. Checkpoint
// bytes and CRCs depend on these bytes, so they must not change.
void AppendNumber(std::string& out, double value) {
  char buf[32];
  std::to_chars_result result;
  if (std::fabs(value) < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    result = std::to_chars(buf, buf + sizeof buf,
                           static_cast<long long>(value));
  } else if (Decimal17 decimal; ExactSeventeenDigits(value, decimal)) {
    AppendGeneral17(out, std::signbit(value), decimal);
    return;
  } else {
    result = std::to_chars(buf, buf + sizeof buf, value,
                           std::chars_format::general, 17);
  }
  out.append(buf, result.ptr);
}

void Indent(std::string& out, int indent, int depth) {
  if (indent <= 0) return;
  out.push_back('\n');
  out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth),
             ' ');
}

}  // namespace

void JsonValue::DumpTo(std::string& out, int indent, int depth) const {
  switch (type()) {
    case Type::kNull:
      out += "null";
      break;
    case Type::kBool:
      out += std::get<bool>(value_) ? "true" : "false";
      break;
    case Type::kNumber:
      AppendNumber(out, std::get<double>(value_));
      break;
    case Type::kString:
      AppendEscaped(out, AsString());
      break;
    case Type::kArray: {
      const JsonArray& array = AsArray();
      out.push_back('[');
      bool first = true;
      for (const auto& item : array) {
        if (!first) out.push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        item.DumpTo(out, indent, depth + 1);
      }
      if (!array.empty()) Indent(out, indent, depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      const JsonObject& object = AsObject();
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object) {
        if (!first) out.push_back(',');
        first = false;
        Indent(out, indent, depth + 1);
        AppendEscaped(out, key);
        out.push_back(':');
        if (indent > 0) out.push_back(' ');
        value.DumpTo(out, indent, depth + 1);
      }
      if (!object.empty()) Indent(out, indent, depth);
      out.push_back('}');
      break;
    }
  }
}

std::string JsonValue::Dump(int indent) const {
  std::string out;
  DumpTo(out, indent, 0);
  return out;
}

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue ParseDocument() {
    SkipWhitespace();
    JsonValue value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) Fail("trailing characters");
    return value;
  }

 private:
  [[noreturn]] void Fail(const std::string& why) {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) +
                    ": " + why);
  }

  // The characters std::isspace accepts in the "C" locale.
  static bool IsSpace(char c) {
    return c == ' ' || (c >= '\t' && c <= '\r');
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  char Peek() {
    if (pos_ >= text_.size()) Fail("unexpected end of input");
    return text_[pos_];
  }

  char Take() {
    char c = Peek();
    ++pos_;
    return c;
  }

  void Expect(char c) {
    if (Take() != c) Fail(std::string("expected '") + c + "'");
  }

  void ExpectLiteral(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) {
      Fail("bad literal");
    }
    pos_ += literal.size();
  }

  JsonValue ParseValue() {
    switch (Peek()) {
      case '{':
      case '[': {
        // Containers recurse: 100k nested '[' would overflow the stack.
        // Real documents nest about 6 deep.
        if (++depth_ > kMaxDepth) Fail("nesting too deep");
        JsonValue value = Peek() == '{' ? ParseObject() : ParseArray();
        --depth_;
        return value;
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

  JsonValue ParseObject() {
    Expect('{');
    JsonObject obj;
    SkipWhitespace();
    if (Peek() == '}') {
      ++pos_;
      return JsonValue(std::move(obj));
    }
    while (true) {
      SkipWhitespace();
      std::string key = ParseString();
      SkipWhitespace();
      Expect(':');
      SkipWhitespace();
      // The writer emits keys in order, so the end is the usual spot.
      obj.emplace_hint(obj.end(), std::move(key), ParseValue());
      SkipWhitespace();
      char c = Take();
      if (c == '}') break;
      if (c != ',') Fail("expected ',' or '}'");
    }
    return JsonValue(std::move(obj));
  }

  JsonValue ParseArray() {
    Expect('[');
    JsonArray arr;
    SkipWhitespace();
    if (Peek() == ']') {
      ++pos_;
      return JsonValue(std::move(arr));
    }
    while (true) {
      SkipWhitespace();
      arr.emplace_back(ParseValue());
      SkipWhitespace();
      char c = Take();
      if (c == ']') break;
      if (c != ',') Fail("expected ',' or ']'");
    }
    return JsonValue(std::move(arr));
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      // Copy the run up to the next quote or backslash in one append.
      const std::size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' &&
             text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (Take() == '"') break;
      // A backslash: one escape sequence.
      switch (Take()) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
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
        case 'u': {
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = Take();
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              Fail("bad \\u escape");
            }
          }
          // UTF-8 encode the BMP code point (surrogate pairs are out of
          // scope for log records, which are ASCII).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out.push_back(static_cast<char>(0xE0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          Fail("bad escape");
      }
    }
    return out;
  }

  bool AtDigit() const {
    return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
  }

  void SkipDigits() {
    while (AtDigit()) ++pos_;
  }

  // RFC 8259: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, scanned in
  // place and converted by std::from_chars, which accepts the subnormals
  // our own writer emits (std::stod throws ERANGE on them).
  JsonValue ParseNumber() {
    const std::size_t start = pos_;
    if (Peek() == '-') ++pos_;
    if (!AtDigit()) Fail(pos_ == start ? "expected a value" : "bad number");
    if (text_[pos_] == '0') {
      ++pos_;
    } else {
      SkipDigits();
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!AtDigit()) Fail("bad number");
      SkipDigits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!AtDigit()) Fail("bad number");
      SkipDigits();
    }
    const char* const begin = text_.data() + start;
    const char* const end = text_.data() + pos_;
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc{} || ptr != end) Fail("bad number");
    return JsonValue(value);
  }

  static constexpr int kMaxDepth = 64;

  const std::string& text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

JsonValue JsonValue::Parse(const std::string& text) {
  return Parser(text).ParseDocument();
}

}  // namespace jarvis::util
