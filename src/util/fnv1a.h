#ifndef AAC_UTIL_FNV1A_H_
#define AAC_UTIL_FNV1A_H_

#include <cstddef>
#include <cstdint>

namespace aac {

/// 64-bit FNV-1a's offset basis and prime.
inline constexpr uint64_t kFnv1aOffsetBasis = 14695981039346656037ULL;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ULL;

/// 64-bit FNV-1a over `size` bytes at `data`, continuing from `hash`, so a
/// digest can be built over several buffers in turn. One caller, kept so
/// by lint rule R10: the query canonicalizer digests result-cache keys
/// with it. The chunk codec and the disk tier sum their blobs with
/// WordChecksum (`word_checksum.h`), which takes 8 bytes per step.
inline uint64_t Fnv1a(const void* data, size_t size,
                      uint64_t hash = kFnv1aOffsetBasis) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

}  // namespace aac

#endif  // AAC_UTIL_FNV1A_H_
