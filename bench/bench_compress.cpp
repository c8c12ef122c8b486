// Experiment E9 (paper §3.1): normalization/compression pipeline cost.
//
// The Bistro normalizer can compress or expand feed files between landing
// and staging. Measures codec throughput and ratio on representative feed
// payloads (CSV measurement rows, already-random data, padded records).

#include <benchmark/benchmark.h>

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include "common/random.h"
#include "common/strings.h"
#include "compress/codec.h"

using namespace bistro;

namespace {

std::string MakePayload(int shape, size_t n) {
  Rng rng(11);
  std::string out;
  out.reserve(n);
  switch (shape) {
    case 0:  // csv measurement rows
      while (out.size() < n) {
        out += StrFormat("router_%llu,cpu,poller%llu,%llu,2010-09-25 04:%02llu\n",
                         (unsigned long long)rng.Uniform(500),
                         (unsigned long long)rng.Uniform(4),
                         (unsigned long long)rng.Uniform(100),
                         (unsigned long long)rng.Uniform(60));
      }
      break;
    case 1:  // random (incompressible)
      while (out.size() < n) out += static_cast<char>(rng.Next() & 0xFF);
      break;
    case 2:  // padded fixed-width records (long runs)
      while (out.size() < n) {
        out += StrFormat("%-64llu", (unsigned long long)rng.Uniform(1000));
      }
      break;
  }
  out.resize(n);
  return out;
}

const char* ShapeName(int shape) {
  switch (shape) {
    case 0:
      return "csv";
    case 1:
      return "random";
    default:
      return "padded";
  }
}

void BM_Compress(benchmark::State& state) {
  CodecKind kind = static_cast<CodecKind>(state.range(0));
  int shape = static_cast<int>(state.range(1));
  std::string payload = MakePayload(shape, 1 << 20);
  const Codec* codec = GetCodec(kind);
  size_t compressed_size = 0;
  for (auto _ : state) {
    std::string out = codec->Compress(payload);
    compressed_size = out.size();
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.counters["ratio"] =
      static_cast<double>(payload.size()) / static_cast<double>(compressed_size);
  state.SetLabel(std::string(CodecKindName(kind)) + "/" + ShapeName(shape));
}

void BM_Decompress(benchmark::State& state) {
  CodecKind kind = static_cast<CodecKind>(state.range(0));
  int shape = static_cast<int>(state.range(1));
  std::string payload = MakePayload(shape, 1 << 20);
  std::string compressed = GetCodec(kind)->Compress(payload);
  const Codec* codec = GetCodec(kind);
  for (auto _ : state) {
    auto out = codec->Decompress(compressed);
    benchmark::DoNotOptimize(out);
    if (!out.ok()) state.SkipWithError("decompress failed");
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(payload.size()));
  state.SetLabel(std::string(CodecKindName(kind)) + "/" + ShapeName(shape));
}

}  // namespace

BENCHMARK(BM_Compress)
    ->ArgsProduct({{1, 2}, {0, 1, 2}})
    ->ArgNames({"codec", "shape"});
BENCHMARK(BM_Decompress)
    ->ArgsProduct({{1, 2}, {0, 1, 2}})
    ->ArgNames({"codec", "shape"});

int main(int argc, char** argv) {
#ifdef __GLIBC__
  // glibc raises its mmap and trim thresholds as large blocks are freed,
  // so whether a 1 MiB buffer is a fresh, page-faulted mmap or reused heap
  // used to depend on which benchmarks ran earlier in the process. Pinning
  // both where the dynamic rule tops out on 64-bit (mmap 32 MiB, trim
  // twice that) gives every benchmark a long-running process's heap,
  // whatever the order.
  constexpr int kMmapThreshold = 32 << 20;
  mallopt(M_MMAP_THRESHOLD, kMmapThreshold);
  mallopt(M_TRIM_THRESHOLD, 2 * kMmapThreshold);
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
