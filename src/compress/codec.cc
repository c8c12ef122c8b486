#include "compress/codec.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>

#include "common/hash.h"
#include "common/strings.h"

namespace bistro {

namespace {

// Frame layout: magic(4) kind(1) orig_size(varint) crc32(4) payload.
constexpr char kMagic[4] = {'B', 'Z', 'F', '1'};
constexpr size_t kMaxVarint = 10;
constexpr size_t kMaxFrameHeader = 4 + 1 + kMaxVarint + 4;

char* PutVarint(char* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

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

bool GetFixed32(std::string_view* in, uint32_t* v) {
  if (in->size() < 4) return false;
  std::memcpy(v, in->data(), 4);
  in->remove_prefix(4);
  return true;
}

/// Starts a frame for `original` in `out`: reserves the header plus
/// `payload_capacity` bytes and appends the header, so the codec writes
/// its payload straight behind it.
void StartFrame(CodecKind kind, std::string_view original,
                size_t payload_capacity, std::string* out) {
  out->reserve(kMaxFrameHeader + payload_capacity);
  out->append(kMagic, 4);
  out->push_back(static_cast<char>(kind));
  PutVarint(out, original.size());
  const uint32_t crc = Crc32(original);
  char buf[4];
  std::memcpy(buf, &crc, 4);
  out->append(buf, 4);
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
    std::string out;
    StartFrame(CodecKind::kNone, input, input.size(), &out);
    out += input;
    return out;
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    BISTRO_RETURN_IF_ERROR(VerifyCrc(h, h.payload));
    return std::string(h.payload);
  }
};

// ------------------------------------------------------------------ RLE

// Byte-level run-length encoding: (count varint, byte) pairs. Effective on
// the long constant stretches common in padded measurement records.
class RleCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kRle; }

  std::string CompressImpl(std::string_view input) const override {
    std::string out;
    StartFrame(CodecKind::kRle, input, input.size() / 2 + 16, &out);
    size_t i = 0;
    while (i < input.size()) {
      char c = input[i];
      size_t run = 1;
      while (i + run < input.size() && input[i + run] == c) ++run;
      PutVarint(&out, run);
      out.push_back(c);
      i += run;
    }
    return out;
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    // One pair of at most 2 bytes covers a run of up to 127, so this
    // reservation fits every frame without long runs; the header's size
    // alone is never trusted for an allocation.
    std::string out;
    out.reserve(std::min<uint64_t>(h.orig_size, 64 * h.payload.size()));
    std::string_view p = h.payload;
    while (!p.empty()) {
      uint64_t run;
      if (!GetVarint(&p, &run)) return Status::Corruption("rle: bad run length");
      if (p.empty()) return Status::Corruption("rle: missing run byte");
      if (run > h.orig_size - out.size()) {
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

// LZ77 with a 64 KiB window and a one-probe 4-byte-hash matcher. Token
// stream:
//   literal run:  varint (len << 1 | 0), then len raw bytes
//   match:        varint (len << 1 | 1), varint distance
constexpr size_t kMinMatch = 4;
constexpr size_t kMaxMatch = 4096;
constexpr size_t kMaxLiteralRun = size_t{1} << 20;
constexpr size_t kWindow = 64 * 1024;
constexpr size_t kHashBits = 16;
// After 2^kSkipTrigger consecutive misses the scan step grows by one byte
// per further 2^kSkipTrigger misses (LZ4's acceleration): incompressible
// data is crossed in O(sqrt(n)) probes, and one match resets the step.
constexpr unsigned kSkipTrigger = 6;

// Payload bound for n input bytes. A match of m >= 4 bytes costs at most
// m (len < 64: 1 + 3 bytes; longer: 2 + 3). A literal run's header costs
// 1 byte when the run is under 64 bytes, so it is paid for by the >= 5
// bytes of that run plus the match after it; longer runs pay at most 3
// bytes out of >= 68. Only the final run's header is unpaid.
constexpr size_t LzPayloadBound(size_t n) { return n + n / 5 + 3; }

uint32_t Load32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint32_t HashWord(uint32_t v) { return (v * 2654435761u) >> (32 - kHashBits); }

/// Length of the common prefix of `a` and `b`, up to `limit` bytes,
/// compared a machine word at a time.
size_t CommonPrefix(const char* a, const char* b, size_t limit) {
  size_t len = 0;
  while (len + 8 <= limit) {
    uint64_t x, y;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (const uint64_t diff = x ^ y) {
      const int bits = std::endian::native == std::endian::little
                           ? std::countr_zero(diff)
                           : std::countl_zero(diff);
      return len + static_cast<size_t>(bits) / 8;
    }
    len += 8;
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

char* PutLiterals(char* op, const char* src, size_t len) {
  while (len > 0) {
    const size_t run = std::min(len, kMaxLiteralRun);
    op = PutVarint(op, static_cast<uint64_t>(run) << 1);
    std::memcpy(op, src, run);
    op += run;
    src += run;
    len -= run;
  }
  return op;
}

/// The match finder's hash head, one per thread and reused by every call
/// on it. A slot holds `base + position`; each call claims a fresh range
/// of bases, so a slot written by an earlier call decodes to a position at
/// or past the end of the current input and is never a candidate. The
/// encoder's output therefore depends on its input alone.
class LzHashHead {
 public:
  /// Returns the table and sets `*base` for a call over `n` bytes.
  static uint32_t* Claim(size_t n, uint32_t* base) {
    thread_local LzHashHead t;
    if (t.slots_ == nullptr) {
      t.slots_ = std::make_unique<uint32_t[]>(kHashSize);  // zeroed
    } else if (n >= UINT32_MAX - t.next_base_) {
      // The bases ran out: start over from an empty table. In one call
      // over 4 GiB or more the slot values wrap, so positions past 4 GiB
      // find candidates only by chance and that tail is stored mostly as
      // literals; every candidate is still checked against the window
      // and the input bytes.
      std::fill_n(t.slots_.get(), kHashSize, 0u);
      t.next_base_ = 1;
    }
    *base = t.next_base_;
    t.next_base_ += static_cast<uint32_t>(std::min<size_t>(n, UINT32_MAX - 1));
    return t.slots_.get();
  }

 private:
  static constexpr size_t kHashSize = size_t{1} << kHashBits;

  std::unique_ptr<uint32_t[]> slots_;
  uint32_t next_base_ = 1;  // slot value 0 is "empty" under every base
};

class LzCodec : public Codec {
 public:
  CodecKind kind() const override { return CodecKind::kLz; }

  std::string CompressImpl(std::string_view input) const override {
    const size_t n = input.size();
    const char* const src = input.data();
    std::string out;
    StartFrame(CodecKind::kLz, input, LzPayloadBound(n), &out);
    const size_t header = out.size();
    out.resize(header + LzPayloadBound(n));
    char* op = out.data() + header;

    uint32_t base;
    uint32_t* const head = LzHashHead::Claim(n, &base);
    size_t lit_start = 0;
    size_t i = 0;
    size_t misses = 0;
    while (i + kMinMatch <= n) {
      const uint32_t word = Load32(src + i);
      uint32_t& slot = head[HashWord(word)];
      const size_t cand = static_cast<uint32_t>(slot - base);
      slot = base + static_cast<uint32_t>(i);
      if (cand >= i || i - cand > kWindow || Load32(src + cand) != word) {
        i += 1 + (misses++ >> kSkipTrigger);
        continue;
      }
      const size_t len =
          kMinMatch + CommonPrefix(src + cand + kMinMatch, src + i + kMinMatch,
                                   std::min(kMaxMatch, n - i) - kMinMatch);
      op = PutLiterals(op, src + lit_start, i - lit_start);
      op = PutVarint(op, (static_cast<uint64_t>(len) << 1) | 1);
      op = PutVarint(op, i - cand);
      // Insert a few positions inside the match to keep the table fresh.
      const size_t step = len > 16 ? len / 8 : 1;
      for (size_t j = i + 1; j + kMinMatch <= i + len; j += step) {
        head[HashWord(Load32(src + j))] = base + static_cast<uint32_t>(j);
      }
      i += len;
      lit_start = i;
      misses = 0;
    }
    op = PutLiterals(op, src + lit_start, n - lit_start);
    out.resize(static_cast<size_t>(op - out.data()));
    return out;
  }

  Result<std::string> DecompressImpl(std::string_view input) const override {
    BISTRO_ASSIGN_OR_RETURN(FrameHeader h, ParseFrame(input));
    // Every token is at least 2 bytes and a match expands to at most
    // kMaxMatch, so a larger declared size is corrupt; it is checked
    // before the output is sized from it.
    if (h.orig_size / (kMaxMatch / 2) > h.payload.size()) {
      return Status::Corruption("lz: declared size exceeds the payload's bound");
    }
    std::string out(h.orig_size, '\0');
    char* const begin = out.data();
    char* const end = begin + out.size();
    char* op = begin;
    std::string_view p = h.payload;
    while (!p.empty()) {
      uint64_t tok;
      if (!GetVarint(&p, &tok)) return Status::Corruption("lz: bad token");
      const uint64_t len = tok >> 1;
      if (len > static_cast<uint64_t>(end - op)) {
        return Status::Corruption("lz: overflow");
      }
      if ((tok & 1) == 0) {
        if (p.size() < len) return Status::Corruption("lz: short literal run");
        std::memcpy(op, p.data(), len);
        op += len;
        p.remove_prefix(len);
        continue;
      }
      if (len > kMaxMatch) return Status::Corruption("lz: match too long");
      uint64_t dist;
      if (!GetVarint(&p, &dist)) return Status::Corruption("lz: bad distance");
      if (dist == 0 || dist > static_cast<uint64_t>(op - begin)) {
        return Status::Corruption("lz: distance out of range");
      }
      const char* from = op - dist;
      size_t k = 0;
      if (dist >= 8) {
        // Each 8-byte step reads bytes at least 8 behind the ones it writes.
        for (; k + 8 <= len; k += 8) std::memcpy(op + k, from + k, 8);
      }
      // Byte at a time: a match closer than 8 overlaps its own output.
      for (; k < len; ++k) op[k] = from[k];
      op += len;
    }
    out.resize(static_cast<size_t>(op - begin));
    BISTRO_RETURN_IF_ERROR(VerifyCrc(h, out));
    return out;
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
