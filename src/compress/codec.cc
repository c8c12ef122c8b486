#include "compress/codec.h"

#include <atomic>
#include <cstring>
#include <memory>
#include <vector>

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

namespace {

// Frame layout: magic(4) kind(1) orig_size(varint) crc32(4) payload.
constexpr char kMagic[4] = {'B', 'Z', 'F', '1'};

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool GetVarint(std::string_view* in, uint64_t* v) {
  *v = 0;
  int shift = 0;
  while (!in->empty() && shift <= 63) {
    uint8_t byte = static_cast<uint8_t>(in->front());
    in->remove_prefix(1);
    *v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) return true;
    shift += 7;
  }
  return false;
}

void PutFixed32(std::string* out, uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, 4);
  out->append(buf, 4);
}

bool GetFixed32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return true;
}

std::string Frame(CodecKind kind, std::string_view original,
                  std::string payload) {
  std::string out;
  out.reserve(payload.size() + 16);
  out.append(kMagic, 4);
  out.push_back(static_cast<char>(kind));
  PutVarint(&out, original.size());
  PutFixed32(&out, Crc32(original));
  out += payload;
  return out;
}

struct FrameHeader {
  CodecKind kind;
  uint64_t orig_size;
  uint32_t crc;
  std::string_view payload;
};

Result<FrameHeader> ParseFrame(std::string_view input) {
  if (input.size() < 9 || std::memcmp(input.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("not a bistro codec frame");
  }
  FrameHeader h;
  uint8_t kind_byte = static_cast<uint8_t>(input[4]);
  if (kind_byte > 2) return Status::Corruption("unknown codec kind");
  h.kind = static_cast<CodecKind>(kind_byte);
  std::string_view rest = input.substr(5);
  if (!GetVarint(&rest, &h.orig_size)) {
    return Status::Corruption("truncated frame varint");
  }
  if (!GetFixed32(&rest, &h.crc)) return Status::Corruption("truncated frame crc");
  h.payload = rest;
  return h;
}

Status VerifyCrc(const FrameHeader& h, std::string_view decoded) {
  if (decoded.size() != h.orig_size) {
    return Status::Corruption(StrFormat("size mismatch: got %zu want %llu",
                                        decoded.size(),
                                        (unsigned long long)h.orig_size));
  }
  if (Crc32(decoded) != h.crc) return Status::Corruption("crc mismatch");
  return Status::OK();
}

// ------------------------------------------------------------------ None

class NoneCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kNone; }

  std::string CompressImpl(std::string_view input) const override {
    return Frame(CodecKind::kNone, input, std::string(input));
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    std::string out(h.payload);
    BISTRO_RETURN_IF_ERROR(VerifyCrc(h, out));
    return out;
  }
};

// ------------------------------------------------------------------ RLE

// Byte-level run-length encoding: (count varint, byte) pairs. Effective on
// the long constant stretches common in padded measurement records.
class RleCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kRle; }

  std::string CompressImpl(std::string_view input) const override {
    std::string payload;
    payload.reserve(input.size() / 2 + 16);
    size_t i = 0;
    while (i < input.size()) {
      char c = input[i];
      size_t run = 1;
      while (i + run < input.size() && input[i + run] == c) ++run;
      PutVarint(&payload, run);
      payload.push_back(c);
      i += run;
    }
    return Frame(CodecKind::kRle, input, std::move(payload));
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    std::string out;
    out.reserve(h.orig_size);
    std::string_view p = h.payload;
    while (!p.empty()) {
      uint64_t run;
      if (!GetVarint(&p, &run)) return Status::Corruption("rle: bad run length");
      if (p.empty()) return Status::Corruption("rle: missing run byte");
      if (out.size() + run > h.orig_size) {
        return Status::Corruption("rle: overflow");
      }
      out.append(run, p.front());
      p.remove_prefix(1);
    }
    BISTRO_RETURN_IF_ERROR(VerifyCrc(h, out));
    return out;
  }
};

// ------------------------------------------------------------------ LZ

// LZ77 with a 64 KiB window and a 4-byte-hash chain matcher. Token stream:
//   literal run:  varint (len << 1 | 0), then len raw bytes
//   match:        varint (len << 1 | 1), varint distance
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 4096;
constexpr size_t kWindow = 64 * 1024;
constexpr size_t kHashBits = 16;

class LzCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLz; }

  std::string CompressImpl(std::string_view input) const override {
    std::string payload;
    payload.reserve(input.size() / 2 + 16);
    const size_t n = input.size();
    std::vector<int64_t> head(size_t{1} << kHashBits, -1);

    size_t lit_start = 0;
    size_t i = 0;
    auto flush_literals = [&](size_t end) {
      size_t pos = lit_start;
      while (pos < end) {
        size_t len = std::min<size_t>(end - pos, 1 << 20);
        PutVarint(&payload, (static_cast<uint64_t>(len) << 1) | 0);
        payload.append(input.data() + pos, len);
        pos += len;
      }
    };

    while (i + kMinMatch <= n) {
      uint32_t h = HashAt(input, i);
      int64_t cand = head[h];
      head[h] = static_cast<int64_t>(i);
      size_t best_len = 0;
      size_t best_dist = 0;
      if (cand >= 0 && i - static_cast<size_t>(cand) <= kWindow) {
        size_t c = static_cast<size_t>(cand);
        size_t len = 0;
        size_t max_len = std::min(kMaxMatch, n - i);
        while (len < max_len && input[c + len] == input[i + len]) ++len;
        if (len >= kMinMatch) {
          best_len = len;
          best_dist = i - c;
        }
      }
      if (best_len >= kMinMatch) {
        flush_literals(i);
        PutVarint(&payload, (static_cast<uint64_t>(best_len) << 1) | 1);
        PutVarint(&payload, best_dist);
        // Insert a few positions inside the match to keep the chain fresh.
        size_t step = best_len > 16 ? best_len / 8 : 1;
        for (size_t j = i + 1; j + kMinMatch <= i + best_len && j + kMinMatch <= n;
             j += step) {
          head[HashAt(input, j)] = static_cast<int64_t>(j);
        }
        i += best_len;
        lit_start = i;
      } else {
        ++i;
      }
    }
    flush_literals(n);
    return Frame(CodecKind::kLz, input, std::move(payload));
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    std::string out;
    out.reserve(h.orig_size);
    std::string_view p = h.payload;
    while (!p.empty()) {
      uint64_t tok;
      if (!GetVarint(&p, &tok)) return Status::Corruption("lz: bad token");
      uint64_t len = tok >> 1;
      if ((tok & 1) == 0) {
        if (p.size() < len) return Status::Corruption("lz: short literal run");
        out.append(p.data(), len);
        p.remove_prefix(len);
      } else {
        uint64_t dist;
        if (!GetVarint(&p, &dist)) return Status::Corruption("lz: bad distance");
        if (dist == 0 || dist > out.size()) {
          return Status::Corruption("lz: distance out of range");
        }
        if (out.size() + len > h.orig_size) return Status::Corruption("lz: overflow");
        size_t src = out.size() - dist;
        // Byte-by-byte: matches may overlap their own output.
        for (uint64_t k = 0; k < len; ++k) out.push_back(out[src + k]);
      }
    }
    BISTRO_RETURN_IF_ERROR(VerifyCrc(h, out));
    return out;
  }

 private:
  static uint32_t HashAt(std::string_view s, size_t i) {
    uint32_t v;
    std::memcpy(&v, s.data() + i, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
  }
};

// Codecs are stateless process-wide singletons, so their activity totals
// are process-wide too. AttachCodecMetrics() bridges these raw atomics
// into a per-registry view (BridgeProcessCounter).
struct CodecTotals {
  std::atomic<uint64_t> compress_calls{0};
  std::atomic<uint64_t> compress_bytes_in{0};
  std::atomic<uint64_t> compress_bytes_out{0};
  std::atomic<uint64_t> decompress_calls{0};
  std::atomic<uint64_t> decompress_failures{0};
};

CodecTotals& Totals() {
  static CodecTotals totals;
  return totals;
}

}  // namespace

std::string Codec::Compress(std::string_view input) const {
  std::string out = CompressImpl(input);
  CodecTotals& t = Totals();
  t.compress_calls.fetch_add(1, std::memory_order_relaxed);
  t.compress_bytes_in.fetch_add(input.size(), std::memory_order_relaxed);
  t.compress_bytes_out.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

Result<std::string> Codec::Decompress(std::string_view input) const {
  Result<std::string> out = DecompressImpl(input);
  CodecTotals& t = Totals();
  t.decompress_calls.fetch_add(1, std::memory_order_relaxed);
  if (!out.ok()) t.decompress_failures.fetch_add(1, std::memory_order_relaxed);
  return out;
}

void AttachCodecMetrics(MetricsRegistry* registry) {
  CodecTotals& t = Totals();
  auto bridge = [registry](const char* name, const char* help,
                           const std::atomic<uint64_t>& total) {
    BridgeProcessCounter(registry, name, help, [&total] {
      return total.load(std::memory_order_relaxed);
    });
  };
  bridge("bistro_codec_compress_calls_total", "Blocks compressed (all codecs)",
         t.compress_calls);
  bridge("bistro_codec_compress_bytes_in_total", "Raw bytes given to Compress",
         t.compress_bytes_in);
  bridge("bistro_codec_compress_bytes_out_total",
         "Framed bytes produced by Compress", t.compress_bytes_out);
  bridge("bistro_codec_decompress_calls_total", "Blocks decompressed",
         t.decompress_calls);
  bridge("bistro_codec_decompress_failures_total",
         "Decompress calls that returned an error", t.decompress_failures);
}

Result<CodecKind> CodecKindFromName(std::string_view name) {
  if (name == "none") return CodecKind::kNone;
  if (name == "rle") return CodecKind::kRle;
  if (name == "lz") return CodecKind::kLz;
  return Status::InvalidArgument("unknown codec: " + std::string(name));
}

std::string_view CodecKindName(CodecKind kind) {
  switch (kind) {
    case CodecKind::kNone:
      return "none";
    case CodecKind::kRle:
      return "rle";
    case CodecKind::kLz:
      return "lz";
  }
  return "?";
}

const Codec* GetCodec(CodecKind kind) {
  static const NoneCodec none;
  static const RleCodec rle;
  static const LzCodec lz;
  switch (kind) {
    case CodecKind::kNone:
      return &none;
    case CodecKind::kRle:
      return &rle;
    case CodecKind::kLz:
      return &lz;
  }
  return &none;
}

bool HasCodecFrame(std::string_view input) {
  return input.size() >= 9 && std::memcmp(input.data(), kMagic, 4) == 0;
}

Result<std::string> AutoDecompress(std::string_view input) {
  if (!HasCodecFrame(input)) return std::string(input);
  uint8_t kind_byte = static_cast<uint8_t>(input[4]);
  if (kind_byte > 2) return Status::Corruption("unknown codec kind");
  return GetCodec(static_cast<CodecKind>(kind_byte))->Decompress(input);
}

}  // namespace bistro
