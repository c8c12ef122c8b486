#ifndef BISTRO_COMMON_HASH_H_
#define BISTRO_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace bistro {

/// CRC32 (IEEE polynomial, reflected). Used to frame WAL, codec and wire
/// records. Chains: Crc32(b, nb, Crc32(a, na)) equals the CRC of a then b.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);
uint32_t Crc32(std::string_view s);

/// Bytes run through Crc32 by this process so far, all callers (the
/// deterministic "CRC passes per payload byte" ledger).
uint64_t Crc32BytesTotal();

/// FNV-1a 64-bit hash; fast non-cryptographic hashing of names and keys.
uint64_t Fnv1a64(std::string_view s);

}  // namespace bistro

#endif  // BISTRO_COMMON_HASH_H_
