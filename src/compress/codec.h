#ifndef BISTRO_COMPRESS_CODEC_H_
#define BISTRO_COMPRESS_CODEC_H_

#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"
#include "obs/metrics.h"

namespace bistro {

/// Codec identifiers usable in feed configuration (`compress lz;`).
enum class CodecKind { kNone = 0, kRle = 1, kLz = 2 };

/// Parses "none" / "rle" / "lz".
Result<CodecKind> CodecKindFromName(std::string_view name);
std::string_view CodecKindName(CodecKind kind);

/// Block compressor. All codecs frame their output with a small header
/// (magic, kind, original size, CRC32 of the original data) so that
/// Decompress can verify integrity and AutoDetect can route.
class Codec {
 public:
  virtual ~Codec() = default;

  virtual CodecKind kind() const = 0;

  /// Compresses `input` into a framed block.
  std::string Compress(std::string_view input) const;

  /// Decompresses a framed block; verifies frame CRC.
  Result<std::string> Decompress(std::string_view input) const;

 protected:
  virtual std::string CompressImpl(std::string_view input) const = 0;
  virtual Result<std::string> DecompressImpl(std::string_view input) const = 0;
};

/// Registers process-wide codec counters (calls, bytes in/out, failures)
/// in `registry`. Codecs are process-wide singletons, so their raw totals
/// are process-wide too; each attached registry receives them through a
/// collect hook (BridgeProcessCounter).
void AttachCodecMetrics(MetricsRegistry* registry);

/// Returns the process-wide codec instance for `kind`.
const Codec* GetCodec(CodecKind kind);

/// Inspects the frame header and decompresses with the right codec.
/// Data without a Bistro frame header is returned unchanged (feeds often
/// deliver already-compressed or plain files we must pass through).
Result<std::string> AutoDecompress(std::string_view input);

/// True if `input` starts with a Bistro codec frame.
bool HasCodecFrame(std::string_view input);

}  // namespace bistro

#endif  // BISTRO_COMPRESS_CODEC_H_
