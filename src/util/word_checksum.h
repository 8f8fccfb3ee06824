#ifndef AAC_UTIL_WORD_CHECKSUM_H_
#define AAC_UTIL_WORD_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace aac {

/// 64-bit checksum over `size` bytes at `data`, 8 bytes per step: the
/// integrity check of the blobs the warm and disk tiers hold (the chunk
/// codec's trailer, the disk tier's extent header and blob sums).
///
/// The input is read as consecutive 8-byte words, the last one zero-padded.
/// Each word passes through one bijective step of the state, and the
/// length is folded in last through one more step and a bijective
/// finalizer. So two inputs of one length that differ only inside one
/// aligned word — any single-bit flip — always sum differently: their
/// states part at that word, and no later step can merge them. Padding
/// cannot alias a longer input's zero bytes, because the lengths differ.
///
/// The sum is computed on the host's byte order and is not a persisted
/// format: blobs checked with it live no longer than their process.
inline uint64_t WordChecksum(const void* data, size_t size) {
  // Xor in a word, multiply by an odd constant, xorshift: each is a
  // bijection of the state, both for a fixed word and, through the xor,
  // of the word for a fixed state.
  const auto step = [](uint64_t state, uint64_t word) {
    state = (state ^ word) * 0x9E3779B97F4A7C15ULL;
    return state ^ (state >> 32);
  };
  const auto* bytes = static_cast<const uint8_t*>(data);
  uint64_t state = 0x243F6A8885A308D3ULL;
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    state = step(state, word);
  }
  if (i < size) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + i, size - i);
    state = step(state, word);
  }
  state = step(state, static_cast<uint64_t>(size));
  // MurmurHash3's fmix64: spreads every state bit over the whole sum.
  state ^= state >> 33;
  state *= 0xFF51AFD7ED558CCDULL;
  state ^= state >> 33;
  state *= 0xC4CEB9FE1A85EC53ULL;
  return state ^ (state >> 33);
}

}  // namespace aac

#endif  // AAC_UTIL_WORD_CHECKSUM_H_
