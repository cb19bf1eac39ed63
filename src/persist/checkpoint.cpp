#include "persist/checkpoint.h"

#include <cstring>

namespace jarvis::persist {

namespace {

// Sanity bound on a single section payload: a length field larger than
// this is treated as header corruption rather than attempted (it would
// otherwise drive a multi-gigabyte allocation off one flipped bit).
constexpr std::uint64_t kMaxSectionBytes = 1ULL << 32;

void PutU32(std::string& out, std::uint32_t v) {
  out.push_back(static_cast<char>(v & 0xFFu));
  out.push_back(static_cast<char>((v >> 8) & 0xFFu));
  out.push_back(static_cast<char>((v >> 16) & 0xFFu));
  out.push_back(static_cast<char>((v >> 24) & 0xFFu));
}

void PutU64(std::string& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xFFu));
  }
}

// Cursor over untrusted bytes: every read is bounds-checked and a failed
// read leaves `ok` false instead of touching out-of-range memory.
struct Reader {
  const std::string& bytes;
  std::size_t pos = 0;
  bool ok = true;

  bool Remaining(std::size_t n) const { return bytes.size() - pos >= n; }

  std::uint32_t U32() {
    if (!ok || !Remaining(4)) {
      ok = false;
      return 0;
    }
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(
                                                          i)]))
           << (8 * i);
    }
    pos += 4;
    return v;
  }

  std::uint64_t U64() {
    if (!ok || !Remaining(8)) {
      ok = false;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(bytes[pos + static_cast<std::size_t>(
                                                          i)]))
           << (8 * i);
    }
    pos += 8;
    return v;
  }

  std::string Bytes(std::size_t n) {
    if (!ok || !Remaining(n)) {
      ok = false;
      return {};
    }
    std::string out = bytes.substr(pos, n);
    pos += n;
    return out;
  }
};

void Report(std::vector<CheckpointIssue>* issues, std::string section,
            std::string detail) {
  if (issues != nullptr) {
    issues->push_back({std::move(section), std::move(detail)});
  }
}

}  // namespace

std::string FormatIssues(const std::vector<CheckpointIssue>& issues) {
  std::string out;
  for (const auto& issue : issues) {
    if (!out.empty()) out += "; ";
    out += issue.section.empty() ? std::string("<file>") : issue.section;
    out += ": ";
    out += issue.detail;
  }
  return out;
}

void Checkpoint::AddSection(const std::string& name, std::string payload) {
  for (auto& [existing, bytes] : sections_) {
    if (existing == name) {
      bytes = std::move(payload);
      return;
    }
  }
  sections_.emplace_back(name, std::move(payload));
}

bool Checkpoint::HasSection(const std::string& name) const {
  return FindSection(name) != nullptr;
}

const std::string* Checkpoint::FindSection(const std::string& name) const {
  for (const auto& [existing, bytes] : sections_) {
    if (existing == name) return &bytes;
  }
  return nullptr;
}

std::vector<std::string> Checkpoint::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, bytes] : sections_) names.push_back(name);
  return names;
}

std::string Checkpoint::Serialize() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutU32(out, kFormatVersion);
  PutU32(out, static_cast<std::uint32_t>(sections_.size()));
  for (const auto& [name, payload] : sections_) {
    PutU32(out, static_cast<std::uint32_t>(name.size()));
    out += name;
    PutU64(out, payload.size());
    PutU32(out, util::io::Crc32(payload));
    out += payload;
  }
  return out;
}

Checkpoint Checkpoint::Parse(const std::string& bytes,
                             std::vector<CheckpointIssue>* issues) {
  Checkpoint ckpt;
  Reader reader{bytes};

  if (!reader.Remaining(sizeof(kMagic)) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    Report(issues, "", "bad magic: not a checkpoint file");
    return ckpt;
  }
  reader.pos = sizeof(kMagic);

  const std::uint32_t version = reader.U32();
  if (!reader.ok) {
    Report(issues, "", "truncated header");
    return ckpt;
  }
  if (version != kFormatVersion) {
    // Version skew is all-or-nothing: section layouts of another version
    // are unknown, so nothing after this header can be trusted.
    Report(issues, "",
           "format version skew: file v" + std::to_string(version) +
               ", library v" + std::to_string(kFormatVersion));
    return ckpt;
  }

  const std::uint32_t count = reader.U32();
  if (!reader.ok) {
    Report(issues, "", "truncated header");
    return ckpt;
  }

  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = reader.U32();
    // A section name is human-named and short; an absurd length means the
    // header itself is corrupt and later offsets are meaningless.
    if (!reader.ok || name_len > 4096) {
      Report(issues, "",
             "section " + std::to_string(i) + " of " + std::to_string(count) +
                 ": corrupt or truncated section header; remaining sections "
                 "unrecoverable");
      return ckpt;
    }
    const std::string name = reader.Bytes(name_len);
    const std::uint64_t payload_len = reader.U64();
    const std::uint32_t crc = reader.U32();
    if (!reader.ok || payload_len > kMaxSectionBytes) {
      Report(issues, name.empty() ? "" : name,
             "section " + std::to_string(i) + " of " + std::to_string(count) +
                 ": corrupt or truncated section header; remaining sections "
                 "unrecoverable");
      return ckpt;
    }
    std::string payload = reader.Bytes(static_cast<std::size_t>(payload_len));
    if (!reader.ok) {
      Report(issues, name,
             "payload truncated (wanted " + std::to_string(payload_len) +
                 " bytes); this and remaining sections unrecoverable");
      return ckpt;
    }
    const std::uint32_t actual = util::io::Crc32(payload);
    if (actual != crc) {
      // The length was intact (we resynchronized past the payload), so
      // only THIS section is lost.
      Report(issues, name, "CRC mismatch: payload corrupt, section dropped");
      continue;
    }
    ckpt.AddSection(name, std::move(payload));
  }
  if (reader.pos != bytes.size()) {
    Report(issues, "",
           std::to_string(bytes.size() - reader.pos) +
               " trailing byte(s) after the last section (ignored)");
  }
  return ckpt;
}

void Checkpoint::WriteFile(const std::string& path,
                           util::io::WriteInterceptor* interceptor) const {
  util::io::AtomicWriteFile(path, Serialize(), interceptor);
}

Checkpoint Checkpoint::ReadFile(const std::string& path,
                                std::vector<CheckpointIssue>* issues) {
  return Parse(util::io::ReadFile(path), issues);
}

}  // namespace jarvis::persist
