#ifndef AAC_STORAGE_CHUNK_CODEC_H_
#define AAC_STORAGE_CHUNK_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "storage/chunk_data.h"

namespace aac {

/// Compressed wire format for one ChunkData, used by the warm cache tier
/// (compressed-in-RAM demotion target) and the disk spill tier.
///
/// The encoder is column-oriented: cell coordinates are split per
/// dimension and zigzag-delta-varint coded in stored cell order (cached
/// chunks come out of the fold/backend in canonical sorted order, so the
/// dominant dimension's deltas are small and non-negative), contributing
/// counts are varint coded, and the FoldState doubles (measure/min/max)
/// are byte-plane split — byte p of every double forms one plane — and
/// each plane is run-length coded (real measures share exponent and
/// high-mantissa bytes, so the upper planes collapse to runs). Cells whose
/// min and max are bit-equal to the measure (every count==1 cell) are
/// flagged in a bitmap and their min/max planes are skipped entirely.
///
/// Round trips are BIT-identical: coordinates and counts are integers,
/// and the double planes are byte transposes of the IEEE-754
/// representation, so NaN payloads, signed zeros and denormals all
/// survive. The chunk's stored cell *order* is also preserved — the codec
/// never canonicalizes.
///
/// When the column coding does not pay (high-entropy synthetic data), the
/// encoder falls back to a stored-raw payload, so EncodeChunk never fails
/// and the encoded size is bounded by raw + header.
///
/// Blob layout (little-endian):
///   u32 magic "AACZ" | u8 version (2) | u8 flags (bit0 = stored raw)
///   | u8 num_dims | u8 reserved | i64 gb | i64 chunk
///   | varint cell_count | payload
///   | u64 WordChecksum (util/word_checksum.h) over all preceding bytes
///
/// Version 2 changed only the trailer (version 1 summed with FNV-1a); every
/// payload byte is as it was. Blobs live no longer than their process (the
/// warm tier holds them in RAM and the disk tier truncates its file on
/// open), so no reader of version 1 remains.
///
/// The trailing checksum makes truncation and corruption detection exact:
/// DecodeChunk rejects any blob whose checksum does not match before
/// parsing the payload, and every payload read is bounds-checked anyway
/// (defense in depth — the decoder never trusts a length it read).
///
/// Both directions are single passes over raw pointers: the encoder writes
/// header, payload and trailer into `*out` sized once from a worst-case
/// bound, and finds byte-plane runs with 8-byte word compares; the decoder
/// reads eight one-byte varints per word and reassembles the doubles
/// eight at a time with an 8x8 byte transpose.
struct EncodedChunkInfo {
  bool stored_raw = false;
  /// Payload bytes a stored-raw encoding would take (the codec's baseline:
  /// num_dims x i32 + measure/count/min/max per cell).
  int64_t raw_payload_bytes = 0;
  /// Total blob size actually produced, header and checksum included.
  int64_t encoded_bytes = 0;
};

/// Serializes `data` (whose cells use the first `num_dims` coordinate
/// slots; higher slots are not stored and decode as zero). Clears and
/// fills `*out`. Never fails; `info` (optional) reports the raw/encoded
/// sizes and whether the raw fallback was taken.
void EncodeChunk(int num_dims, const ChunkData& data,
                 std::vector<uint8_t>* out, EncodedChunkInfo* info = nullptr);

/// Parses a blob produced by EncodeChunk back into `*out`. Returns false —
/// leaving `*out` unspecified — on any structural problem: wrong magic,
/// version or dimensionality, checksum mismatch (truncation/corruption),
/// or a payload that over- or under-runs its declared cell count.
bool DecodeChunk(int num_dims, const uint8_t* blob, size_t size,
                 ChunkData* out);

}  // namespace aac

#endif  // AAC_STORAGE_CHUNK_CODEC_H_
