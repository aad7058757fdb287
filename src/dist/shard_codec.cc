#include "dist/shard_codec.h"

#include <cstring>
#include <string>

namespace aptrace::dist {

namespace {

constexpr char kB64Alphabet[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Reverse alphabet; -1 marks an invalid byte.
int B64Value(char c) {
  if (c >= 'A' && c <= 'Z') return c - 'A';
  if (c >= 'a' && c <= 'z') return c - 'a' + 26;
  if (c >= '0' && c <= '9') return c - '0' + 52;
  if (c == '+') return 62;
  if (c == '/') return 63;
  return -1;
}

void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint16_t GetU16(const unsigned char* p) {
  return static_cast<uint16_t>(p[0]) |
         static_cast<uint16_t>(static_cast<uint16_t>(p[1]) << 8);
}

uint64_t GetU64(const unsigned char* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// The 36-byte WAL event layout (storage/wal.h), id excluded.
void PutEvent(std::string* out, const Event& e) {
  PutU64(out, static_cast<uint64_t>(e.timestamp));
  PutU64(out, e.subject);
  PutU64(out, e.object);
  PutU64(out, e.amount);
  PutU16(out, e.host);
  out->push_back(static_cast<char>(e.action));
  out->push_back(static_cast<char>(e.direction));
}

Event GetEvent(const unsigned char* p) {
  Event e;
  e.timestamp = static_cast<TimeMicros>(GetU64(p));
  e.subject = GetU64(p + 8);
  e.object = GetU64(p + 16);
  e.amount = GetU64(p + 24);
  e.host = GetU16(p + 32);
  e.action = static_cast<ActionType>(p[34]);
  e.direction = static_cast<FlowDirection>(p[35]);
  return e;
}

}  // namespace

std::string Base64Encode(std::string_view bytes) {
  std::string out;
  out.reserve((bytes.size() + 2) / 3 * 4);
  size_t i = 0;
  for (; i + 3 <= bytes.size(); i += 3) {
    const uint32_t n = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8) |
                       static_cast<unsigned char>(bytes[i + 2]);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back(kB64Alphabet[n & 63]);
  }
  const size_t rest = bytes.size() - i;
  if (rest == 1) {
    const uint32_t n = static_cast<unsigned char>(bytes[i]) << 16;
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out += "==";
  } else if (rest == 2) {
    const uint32_t n = (static_cast<unsigned char>(bytes[i]) << 16) |
                       (static_cast<unsigned char>(bytes[i + 1]) << 8);
    out.push_back(kB64Alphabet[(n >> 18) & 63]);
    out.push_back(kB64Alphabet[(n >> 12) & 63]);
    out.push_back(kB64Alphabet[(n >> 6) & 63]);
    out.push_back('=');
  }
  return out;
}

Result<std::string> Base64Decode(std::string_view text) {
  if (text.size() % 4 != 0) {
    return Status::InvalidArgument("base64 length not a multiple of 4");
  }
  std::string out;
  out.reserve(text.size() / 4 * 3);
  for (size_t i = 0; i < text.size(); i += 4) {
    int v[4];
    int pads = 0;
    for (int j = 0; j < 4; ++j) {
      const char c = text[i + j];
      if (c == '=') {
        // Padding is only legal in the last group's final positions.
        if (i + 4 != text.size() || j < 2) {
          return Status::InvalidArgument("base64 padding misplaced");
        }
        v[j] = 0;
        pads++;
      } else {
        if (pads > 0) {
          return Status::InvalidArgument("base64 data after padding");
        }
        v[j] = B64Value(c);
        if (v[j] < 0) {
          return Status::InvalidArgument("invalid base64 byte");
        }
      }
    }
    const uint32_t n = (static_cast<uint32_t>(v[0]) << 18) |
                       (static_cast<uint32_t>(v[1]) << 12) |
                       (static_cast<uint32_t>(v[2]) << 6) |
                       static_cast<uint32_t>(v[3]);
    out.push_back(static_cast<char>((n >> 16) & 0xff));
    if (pads < 2) out.push_back(static_cast<char>((n >> 8) & 0xff));
    if (pads < 1) out.push_back(static_cast<char>(n & 0xff));
  }
  return out;
}

std::string EncodeEvents(const std::vector<Event>& events) {
  std::string out;
  out.reserve(events.size() * kShardEventBytes);
  for (const Event& e : events) PutEvent(&out, e);
  return out;
}

Result<std::vector<Event>> DecodeEvents(std::string_view bytes) {
  if (bytes.size() % kShardEventBytes != 0) {
    return Status::InvalidArgument("event payload not a whole row count");
  }
  std::vector<Event> out;
  out.reserve(bytes.size() / kShardEventBytes);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (size_t off = 0; off < bytes.size(); off += kShardEventBytes) {
    out.push_back(GetEvent(p + off));
  }
  return out;
}

std::string EncodeRows(const std::vector<Event>& rows) {
  std::string out;
  out.reserve(rows.size() * kShardRowBytes);
  for (const Event& e : rows) {
    PutU64(&out, e.id);
    PutEvent(&out, e);
  }
  return out;
}

Result<std::vector<Event>> DecodeRows(std::string_view bytes) {
  if (bytes.size() % kShardRowBytes != 0) {
    return Status::InvalidArgument("row payload not a whole row count");
  }
  std::vector<Event> out;
  out.reserve(bytes.size() / kShardRowBytes);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (size_t off = 0; off < bytes.size(); off += kShardRowBytes) {
    Event e = GetEvent(p + off + 8);
    e.id = GetU64(p + off);
    out.push_back(e);
  }
  return out;
}

std::string EncodeProbes(std::span<const CollectProbe> probes) {
  std::string out;
  out.reserve(probes.size() * kShardProbeBytes);
  for (const CollectProbe& p : probes) {
    out.push_back(static_cast<char>(p.kind));
    PutU64(&out, p.key);
    PutU64(&out, static_cast<uint64_t>(p.begin));
    PutU64(&out, static_cast<uint64_t>(p.end));
  }
  return out;
}

Result<std::vector<CollectProbe>> DecodeProbes(std::string_view bytes) {
  if (bytes.size() % kShardProbeBytes != 0) {
    return Status::InvalidArgument("probe payload not a whole probe count");
  }
  std::vector<CollectProbe> out;
  out.reserve(bytes.size() / kShardProbeBytes);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (size_t off = 0; off < bytes.size(); off += kShardProbeBytes) {
    if (p[off] > static_cast<unsigned char>(ProbeKind::kRange)) {
      return Status::InvalidArgument("unknown probe kind " +
                                     std::to_string(p[off]));
    }
    CollectProbe probe;
    probe.kind = static_cast<ProbeKind>(p[off]);
    probe.key = GetU64(p + off + 1);
    probe.begin = static_cast<TimeMicros>(GetU64(p + off + 9));
    probe.end = static_cast<TimeMicros>(GetU64(p + off + 17));
    out.push_back(probe);
  }
  return out;
}

std::string EncodeU64s(const std::vector<uint64_t>& values) {
  std::string out;
  out.reserve(values.size() * 8);
  for (const uint64_t v : values) PutU64(&out, v);
  return out;
}

Result<std::vector<uint64_t>> DecodeU64s(std::string_view bytes) {
  if (bytes.size() % 8 != 0) {
    return Status::InvalidArgument("u64 payload not a whole count");
  }
  std::vector<uint64_t> out;
  out.reserve(bytes.size() / 8);
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  for (size_t off = 0; off < bytes.size(); off += 8) {
    out.push_back(GetU64(p + off));
  }
  return out;
}

}  // namespace aptrace::dist
