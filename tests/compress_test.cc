// Tests for the compression codecs: round trips, corruption detection,
// frame auto-detection, and compression-ratio sanity. Parameterized across
// codecs and data shapes.

#include <gtest/gtest.h>

#include "common/hash.h"
#include "common/random.h"
#include "common/strings.h"
#include "compress/codec.h"

namespace bistro {
namespace {

TEST(CodecNameTest, RoundTrip) {
  for (CodecKind k : {CodecKind::kNone, CodecKind::kRle, CodecKind::kLz}) {
    auto parsed = CodecKindFromName(CodecKindName(k));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, k);
  }
  EXPECT_FALSE(CodecKindFromName("gzip").ok());
}

// Data shapes that exercise different codec behaviours.
std::string MakeInput(const std::string& shape, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string out;
  out.reserve(n);
  if (shape == "zeros") {
    out.assign(n, '\0');
  } else if (shape == "random") {
    while (out.size() < n) out += static_cast<char>(rng.Next() & 0xFF);
  } else if (shape == "csv") {
    // Repetitive measurement rows, LZ-friendly.
    while (out.size() < n) {
      out += "router_a,poller" + std::to_string(rng.Uniform(3)) + ",cpu," +
             std::to_string(rng.Uniform(100)) + ",2010-09-25\n";
    }
    out.resize(n);
  } else if (shape == "runs") {
    while (out.size() < n) {
      out.append(rng.Uniform(50) + 1, static_cast<char>('a' + rng.Uniform(4)));
    }
    out.resize(n);
  }
  return out;
}

struct Param {
  CodecKind kind;
  const char* shape;
};

class CodecRoundTripTest : public ::testing::TestWithParam<Param> {};

TEST_P(CodecRoundTripTest, RoundTripsAllSizes) {
  const Codec* codec = GetCodec(GetParam().kind);
  for (size_t n : {0u, 1u, 2u, 3u, 4u, 5u, 17u, 100u, 4096u, 100000u}) {
    std::string input = MakeInput(GetParam().shape, n, /*seed=*/n + 1);
    std::string compressed = codec->Compress(input);
    auto out = codec->Decompress(compressed);
    ASSERT_TRUE(out.ok()) << GetParam().shape << " n=" << n << ": "
                          << out.status();
    EXPECT_EQ(*out, input) << GetParam().shape << " n=" << n;
  }
}

TEST_P(CodecRoundTripTest, AutoDecompressRoutes) {
  const Codec* codec = GetCodec(GetParam().kind);
  std::string input = MakeInput(GetParam().shape, 1000, 7);
  auto out = AutoDecompress(codec->Compress(input));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, input);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, CodecRoundTripTest,
    ::testing::Values(Param{CodecKind::kNone, "csv"},
                      Param{CodecKind::kNone, "random"},
                      Param{CodecKind::kRle, "zeros"},
                      Param{CodecKind::kRle, "runs"},
                      Param{CodecKind::kRle, "random"},
                      Param{CodecKind::kLz, "csv"},
                      Param{CodecKind::kLz, "zeros"},
                      Param{CodecKind::kLz, "runs"},
                      Param{CodecKind::kLz, "random"}),
    [](const ::testing::TestParamInfo<Param>& info) {
      return std::string(CodecKindName(info.param.kind)) + "_" +
             info.param.shape;
    });

TEST(CodecTest, RleCompressesRuns) {
  std::string input(10000, 'x');
  std::string compressed = GetCodec(CodecKind::kRle)->Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 100);
}

TEST(CodecTest, LzCompressesRepetitiveCsv) {
  std::string input = MakeInput("csv", 100000, 3);
  std::string compressed = GetCodec(CodecKind::kLz)->Compress(input);
  EXPECT_LT(compressed.size(), input.size() / 2);
}

TEST(CodecTest, CorruptPayloadDetected) {
  std::string input = MakeInput("csv", 5000, 9);
  for (CodecKind k : {CodecKind::kNone, CodecKind::kRle, CodecKind::kLz}) {
    std::string compressed = GetCodec(k)->Compress(input);
    // Flip a byte in the payload area.
    compressed[compressed.size() / 2] ^= 0x41;
    auto out = GetCodec(k)->Decompress(compressed);
    EXPECT_FALSE(out.ok()) << CodecKindName(k);
  }
}

TEST(CodecTest, TruncatedFrameDetected) {
  std::string compressed = GetCodec(CodecKind::kLz)->Compress("hello world hello world");
  for (size_t cut : {0u, 4u, 8u}) {
    auto out = GetCodec(CodecKind::kLz)->Decompress(
        std::string_view(compressed).substr(0, cut));
    EXPECT_FALSE(out.ok()) << "cut=" << cut;
  }
  // Truncating the payload must also fail (CRC or structure).
  auto out = GetCodec(CodecKind::kLz)->Decompress(
      std::string_view(compressed).substr(0, compressed.size() - 3));
  EXPECT_FALSE(out.ok());
}

TEST(CodecTest, AutoDecompressPassesThroughPlainData) {
  std::string plain = "not a frame at all";
  auto out = AutoDecompress(plain);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, plain);
  EXPECT_FALSE(HasCodecFrame(plain));
}

TEST(CodecTest, FrameDetection) {
  std::string compressed = GetCodec(CodecKind::kRle)->Compress("abc");
  EXPECT_TRUE(HasCodecFrame(compressed));
}

// ------------------------------------------------- format and ratio pins

// bench/bench_compress.cpp's payload shapes: 0 csv, 1 random, 2 padded.
std::string BenchPayload(int shape, size_t n) {
  Rng rng(11);
  std::string out;
  out.reserve(n);
  switch (shape) {
    case 0:
      while (out.size() < n) {
        out += StrFormat("router_%llu,cpu,poller%llu,%llu,2010-09-25 04:%02llu\n",
                         (unsigned long long)rng.Uniform(500),
                         (unsigned long long)rng.Uniform(4),
                         (unsigned long long)rng.Uniform(100),
                         (unsigned long long)rng.Uniform(60));
      }
      break;
    case 1:
      while (out.size() < n) out += static_cast<char>(rng.Next() & 0xFF);
      break;
    default:
      while (out.size() < n) {
        out += StrFormat("%-64llu", (unsigned long long)rng.Uniform(1000));
      }
      break;
  }
  out.resize(n);
  return out;
}
// pipebench's poller CSV: epoch timestamps, host, metric, index and a
// random 10-digit value per row.
std::string DigitHeavyCsv(size_t n) {
  static const char* const kFamilies[] = {"cpu", "mem", "if", "disk", "temp"};
  Rng rng(16);
  std::string out;
  out.reserve(n + 96);
  unsigned long long ts = 1792195200 + rng.Uniform(86400);
  while (out.size() < n) {
    const unsigned metric = static_cast<unsigned>(rng.Uniform(50));
    out += StrFormat("%llu,host%03u,%sStat%u,%u,%llu\n", ts,
                     static_cast<unsigned>(rng.Uniform(200)),
                     kFamilies[metric / 10], metric % 10,
                     static_cast<unsigned>(rng.Uniform(48)),
                     (unsigned long long)rng.Uniform(10000000000ull));
    ts += rng.Uniform(3);
  }
  out.resize(n);
  return out;
}

std::string FromHex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(static_cast<char>(
        std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

/// A frame with an arbitrary header, for inputs no encoder would write.
std::string RawFrame(CodecKind kind, uint64_t orig_size, uint32_t crc,
                     std::string_view payload) {
  std::string frame = "BZF1";
  frame.push_back(static_cast<char>(kind));
  for (; orig_size >= 0x80; orig_size >>= 7) {
    frame.push_back(static_cast<char>((orig_size & 0x7F) | 0x80));
  }
  frame.push_back(static_cast<char>(orig_size));
  frame.append(reinterpret_cast<const char*>(&crc), 4);
  frame += payload;
  return frame;
}

struct GoldenFrame {
  CodecKind kind;
  int shape;  // BenchPayload shape
  size_t size;
  const char* hex;
};

// Written by the encoders as they were before the lz match finder was
// rewritten (one probe per byte, byte-wise compares). Every frame already
// stored or spooled looks like these, so they must keep decoding.
const GoldenFrame kGoldenFrames[] = {
    {CodecKind::kLz, 0, 192,  // lz csv
     "425a463102c0014bbc084c56726f757465725f3136302c6370752c706f6c6c65"
     "72312c34312c323031302d30392d32352030343a35350a132b0235172b08332c"
     "39351f2b043330112b02341b290231215402321354043337172a08302c33341f"
     "2a043039112a06343333172b04312c"},
    {CodecKind::kRle, 0, 192,  // rle csv
     "425a463101c0014bbc084c0172016f0175017401650172015f01310136013001"
     "2c016301700175012c0170016f026c016501720131012c01340131012c013201"
     "3001310130012d01300139012d01320135012001300134013a0235010a017201"
     "6f0175017401650172015f013101360135012c016301700175012c0170016f02"
     "6c016501720133012c01390135012c0132013001310130012d01300139012d01"
     "320135012001300134013a01330130010a0172016f0175017401650172015f01"
     "34012c016301700175012c0170016f026c016501720133012c0231012c013201"
     "3001310130012d01300139012d01320135012001300134013a01320135010a01"
     "72016f0175017401650172015f01330137012c016301700175012c0170016f02"
     "6c016501720130012c01330134012c0132013001310130012d01300139012d01"
     "320135012001300134013a01300139010a0172016f0175017401650172015f01"
     "340233012c016301700175012c0170016f026c016501720131012c"},
    {CodecKind::kNone, 0, 192,  // none csv
     "425a463100c0014bbc084c726f757465725f3136302c6370752c706f6c6c6572"
     "312c34312c323031302d30392d32352030343a35350a726f757465725f313635"
     "2c6370752c706f6c6c6572332c39352c323031302d30392d32352030343a3330"
     "0a726f757465725f342c6370752c706f6c6c6572332c31312c323031302d3039"
     "2d32352030343a32350a726f757465725f33372c6370752c706f6c6c6572302c"
     "33342c323031302d30392d32352030343a30390a726f757465725f3433332c63"
     "70752c706f6c6c6572312c"},
    {CodecKind::kLz, 1, 48,  // lz random
     "425a46310230f50be17c60df81ad38568fbb19d987e33c5116805de49aa961af"
     "98c2015d117f1a26c0a002dd85fceb205d77c859605bcc14f5ec09"},
    {CodecKind::kRle, 1, 48,  // rle random
     "425a46310130f50be17c01df018101ad01380156018f01bb011901d9018701e3"
     "013c015101160180015d01e4019a01a9016101af019801c20101015d0111017f"
     "011a012601c001a0010201dd018501fc01eb0120015d017701c801590160015b"
     "01cc011401f501ec0109"},
    {CodecKind::kNone, 1, 48,  // none random
     "425a46310030f50be17cdf81ad38568fbb19d987e33c5116805de49aa961af98"
     "c2015d117f1a26c0a002dd85fceb205d77c859605bcc14f5ec09"},
    {CodecKind::kLz, 2, 256,  // lz padded
     "425a463102800280465a2e0837373520790106343431150d670406373839110b"
     "6b040631363009077304"},
    {CodecKind::kRle, 2, 256,  // rle padded
     "425a463101800280465a2e023701353d20023401313d200137013801393d2001"
     "31013601303d20"},
    {CodecKind::kNone, 2, 256,  // none padded
     "425a463100800280465a2e373735202020202020202020202020202020202020"
     "2020202020202020202020202020202020202020202020202020202020202020"
     "2020202020202020202020343431202020202020202020202020202020202020"
     "2020202020202020202020202020202020202020202020202020202020202020"
     "2020202020202020202020373839202020202020202020202020202020202020"
     "2020202020202020202020202020202020202020202020202020202020202020"
     "2020202020202020202020313630202020202020202020202020202020202020"
     "2020202020202020202020202020202020202020202020202020202020202020"
     "2020202020202020202020"},
};

TEST(CodecGoldenTest, EarlierEncoderFramesDecodeByteExact) {
  for (const GoldenFrame& g : kGoldenFrames) {
    const std::string frame = FromHex(g.hex);
    const std::string expected = BenchPayload(g.shape, g.size);
    auto out = GetCodec(g.kind)->Decompress(frame);
    ASSERT_TRUE(out.ok()) << CodecKindName(g.kind) << " shape " << g.shape
                          << ": " << out.status();
    EXPECT_EQ(*out, expected) << CodecKindName(g.kind) << " shape " << g.shape;
    auto routed = AutoDecompress(frame);
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(*routed, expected);
  }
}

// The lz encoder may change its output bytes but never its ratio: each
// size is what the earlier encoder produced for the same 1 MiB input.
TEST(LzRatioTest, NoLargerThanTheEarlierEncoder) {
  struct Case {
    const char* name;
    std::string input;
    size_t earlier_size;
  };
  const Case cases[] = {
      {"bench csv", BenchPayload(0, 1 << 20), 240854},
      {"bench random", BenchPayload(1, 1 << 20), 1048620},
      {"bench padded", BenchPayload(2, 1 << 20), 76922},
      {"digit-heavy csv", DigitHeavyCsv(1 << 20), 581400},
  };
  for (const Case& c : cases) {
    const std::string frame = GetCodec(CodecKind::kLz)->Compress(c.input);
    EXPECT_LE(frame.size(), c.earlier_size) << c.name;
    auto out = GetCodec(CodecKind::kLz)->Decompress(frame);
    ASSERT_TRUE(out.ok()) << c.name << ": " << out.status();
    EXPECT_EQ(*out, c.input) << c.name;
  }
}

TEST(CodecTest, AbsurdDeclaredSizeIsCorruption) {
  // Each payload is a well-formed token stream for "ab"; only the declared
  // size lies. No decoder may size its output from the header alone.
  const std::string actual = "ab";
  const std::string payloads[] = {
      /*none*/ actual,
      /*rle*/ std::string("\x01" "a" "\x01" "b", 4),
      /*lz*/ std::string("\x04" "ab", 3),
  };
  for (CodecKind k : {CodecKind::kNone, CodecKind::kRle, CodecKind::kLz}) {
    const std::string& payload = payloads[static_cast<int>(k)];
    ASSERT_TRUE(GetCodec(k)->Decompress(
                    RawFrame(k, actual.size(), Crc32(actual), payload))
                    .ok())
        << CodecKindName(k);
    for (uint64_t declared : {uint64_t{1} << 45, uint64_t{1} << 62,
                              ~uint64_t{0}, uint64_t{1} << 20}) {
      auto out =
          AutoDecompress(RawFrame(k, declared, Crc32(actual), payload));
      ASSERT_FALSE(out.ok()) << CodecKindName(k) << " declared " << declared;
      EXPECT_EQ(out.status().code(), StatusCode::kCorruption)
          << CodecKindName(k) << " declared " << declared;
    }
  }
}

TEST(CodecTest, LzRejectsAMatchLongerThanAnyEncoderWrites) {
  // 'a' then a 4097-byte match at distance 1: the right bytes and CRC,
  // but no encoder emits a match over 4096 bytes.
  const std::string actual(4098, 'a');
  std::string payload("\x02" "a", 2);
  payload += "\x83\x40\x01";  // varint(4097 << 1 | 1), distance 1
  auto out = GetCodec(CodecKind::kLz)->Decompress(
      RawFrame(CodecKind::kLz, actual.size(), Crc32(actual), payload));
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCorruption);
}

// Property-style: random inputs across sizes must always round trip for LZ
// (the codec with the most complex token stream).
class LzPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(LzPropertyTest, RandomRoundTrip) {
  Rng rng(GetParam());
  const Codec* codec = GetCodec(CodecKind::kLz);
  for (int iter = 0; iter < 20; ++iter) {
    size_t n = rng.Uniform(20000);
    // Mix of random and self-similar content.
    std::string input = MakeInput(rng.Bernoulli(0.5) ? "csv" : "runs", n,
                                  rng.Next());
    auto out = codec->Decompress(codec->Compress(input));
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(*out, input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LzPropertyTest, ::testing::Range(1, 6));

}  // namespace
}  // namespace bistro
