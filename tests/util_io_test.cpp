// util::io: the slicing-by-8 CRC-32 against the bytewise reference, and
// the atomic write / whole-file read pair the checkpoint layer rides on.
#include "util/io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"
#include "util/testing/reference_codec.h"

namespace jarvis::util::io {
namespace {

TEST(Crc32, MatchesTheCheckValue) {
  EXPECT_EQ(Crc32(std::string("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string()), 0u);
}

TEST(Crc32, MatchesTheBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(91);
  std::vector<unsigned char> buffer(64 + 8);
  for (auto& byte : buffer) byte = static_cast<unsigned char>(rng.NextU64());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 64; ++length) {
      const unsigned char* data = buffer.data() + offset;
      EXPECT_EQ(Crc32(data, length), testing::ReferenceCrc32(data, length))
          << "offset " << offset << " length " << length;
    }
  }
}

TEST(Crc32, MatchesTheReferenceOnALargeBuffer) {
  Rng rng(92);
  std::string bytes(512 * 1024 + 5, '\0');
  for (char& byte : bytes) byte = static_cast<char>(rng.NextU64());
  EXPECT_EQ(Crc32(bytes), testing::ReferenceCrc32(bytes.data(), bytes.size()));
}

// Flips the first byte of every payload it sees; commits normally.
class FlipFirstByte : public WriteInterceptor {
 public:
  void OnWrite(const std::string&, std::string& payload) override {
    if (!payload.empty()) payload[0] = static_cast<char>(payload[0] ^ 0x01);
  }
  bool OnRename(const std::string&) override { return true; }
};

TEST(AtomicWriteFile, ReadFileReturnsWhatWasWritten) {
  const std::string path = ::testing::TempDir() + "/util_io_roundtrip.bin";
  std::string payload(200000, '\0');
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 131 % 251);
  }
  AtomicWriteFile(path, payload);
  EXPECT_EQ(ReadFile(path), payload);
  AtomicWriteFile(path, "");
  EXPECT_EQ(ReadFile(path), "");
  RemoveFile(path);
}

TEST(AtomicWriteFile, InterceptorMutatesTheDiskBytesNotTheCallers) {
  const std::string path = ::testing::TempDir() + "/util_io_intercept.bin";
  const std::string payload = "abc";
  FlipFirstByte interceptor;
  AtomicWriteFile(path, payload, &interceptor);
  EXPECT_EQ(payload, "abc");
  EXPECT_EQ(ReadFile(path), "`bc");
  RemoveFile(path);
}

}  // namespace
}  // namespace jarvis::util::io
