#include "storage/chunk_codec.h"

#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/fnv1a.h"

namespace aac {
namespace {

constexpr uint32_t kMagic = 0x5A434141;  // "AACZ" little-endian
constexpr uint8_t kVersion = 1;
constexpr uint8_t kFlagRaw = 0x01;
// Fixed-size prefix: magic + version + flags + num_dims + reserved + gb +
// chunk.
constexpr size_t kHeaderBytes = 4 + 1 + 1 + 1 + 1 + 8 + 8;
constexpr size_t kChecksumBytes = 8;
// Raw payload cost per cell beyond the coordinates: measure, count, min,
// max.
constexpr size_t kFoldStateBytes = 32;

void PutBytes(std::vector<uint8_t>* out, const void* src, size_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  out->insert(out->end(), p, p + n);
}

template <typename T>
void PutScalar(std::vector<uint8_t>* out, T value) {
  PutBytes(out, &value, sizeof(value));
}

void PutVarint(std::vector<uint8_t>* out, uint64_t value) {
  while (value >= 0x80) {
    out->push_back(static_cast<uint8_t>(value) | 0x80);
    value >>= 7;
  }
  out->push_back(static_cast<uint8_t>(value));
}

uint64_t Zigzag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t Unzigzag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

/// Bounds-checked sequential reader over the payload region.
struct Reader {
  const uint8_t* pos;
  const uint8_t* end;

  size_t remaining() const { return static_cast<size_t>(end - pos); }

  bool Bytes(void* dst, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(dst, pos, n);
    pos += n;
    return true;
  }

  bool Byte(uint8_t* dst) { return Bytes(dst, 1); }

  bool Varint(uint64_t* value) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos == end) return false;
      const uint8_t b = *pos++;
      v |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        *value = v;
        return true;
      }
    }
    return false;  // over-long varint
  }
};

// --- Byte-plane RLE ------------------------------------------------------
//
// A plane block serializes m doubles as: varint m, then 8 planes (plane p
// = byte p of each double's IEEE-754 bits), each plane RLE-coded with
// varint tokens: (len << 1) | 1 followed by one byte = run of `len` copies;
// (len << 1) followed by `len` bytes = literal. len is never zero.

constexpr size_t kMinRunLen = 4;  // below this a literal is cheaper

void EncodePlaneRle(const uint8_t* bytes, size_t n,
                    std::vector<uint8_t>* out) {
  size_t i = 0;
  size_t lit_start = 0;
  const auto flush_literals = [&](size_t end) {
    if (lit_start >= end) return;
    PutVarint(out, static_cast<uint64_t>(end - lit_start) << 1);
    PutBytes(out, bytes + lit_start, end - lit_start);
  };
  while (i < n) {
    size_t run = 1;
    while (i + run < n && bytes[i + run] == bytes[i]) ++run;
    if (run >= kMinRunLen) {
      flush_literals(i);
      PutVarint(out, (static_cast<uint64_t>(run) << 1) | 1);
      out->push_back(bytes[i]);
      i += run;
      lit_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(n);
}

bool DecodePlaneRle(Reader& r, uint8_t* dst, size_t n) {
  size_t filled = 0;
  while (filled < n) {
    uint64_t token;
    if (!r.Varint(&token)) return false;
    const uint64_t len = token >> 1;
    // A zero-length token or one overshooting the plane is structural
    // corruption; rejecting here also bounds decode work by the plane size.
    if (len == 0 || len > n - filled) return false;
    if ((token & 1) != 0) {
      uint8_t b;
      if (!r.Byte(&b)) return false;
      std::memset(dst + filled, b, static_cast<size_t>(len));
    } else {
      if (!r.Bytes(dst + filled, static_cast<size_t>(len))) return false;
    }
    filled += static_cast<size_t>(len);
  }
  return true;
}

void EncodeDoublePlanes(const std::vector<double>& values,
                        std::vector<uint8_t>* out) {
  const size_t m = values.size();
  PutVarint(out, static_cast<uint64_t>(m));
  std::vector<uint8_t> plane(m);
  for (int p = 0; p < 8; ++p) {
    for (size_t j = 0; j < m; ++j) {
      const uint64_t bits = std::bit_cast<uint64_t>(values[j]);
      plane[j] = static_cast<uint8_t>(bits >> (8 * p));
    }
    EncodePlaneRle(plane.data(), m, out);
  }
}

bool DecodeDoublePlanes(Reader& r, size_t expected, std::vector<double>* out) {
  uint64_t m = 0;
  if (!r.Varint(&m) || m != expected) return false;
  std::vector<uint8_t> plane(expected);
  std::vector<uint64_t> bits(expected, 0);
  for (int p = 0; p < 8; ++p) {
    if (!DecodePlaneRle(r, plane.data(), expected)) return false;
    for (size_t j = 0; j < expected; ++j) {
      bits[j] |= static_cast<uint64_t>(plane[j]) << (8 * p);
    }
  }
  out->resize(expected);
  for (size_t j = 0; j < expected; ++j) {
    (*out)[j] = std::bit_cast<double>(bits[j]);
  }
  return true;
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

size_t RawPayloadBytes(int num_dims, size_t cells) {
  return cells * (static_cast<size_t>(num_dims) * 4 + kFoldStateBytes);
}

void EncodeRawPayload(int num_dims, const ChunkData& data,
                      std::vector<uint8_t>* out) {
  for (const Cell& cell : data.cells) {
    for (int d = 0; d < num_dims; ++d) {
      PutScalar(out, cell.values[static_cast<size_t>(d)]);
    }
    PutScalar(out, cell.measure);
    PutScalar(out, cell.count);
    PutScalar(out, cell.min);
    PutScalar(out, cell.max);
  }
}

void EncodeColumnPayload(int num_dims, const ChunkData& data,
                         std::vector<uint8_t>* out) {
  const size_t cells = data.cells.size();
  // Coordinates: one delta stream per dimension, stored cell order.
  for (int d = 0; d < num_dims; ++d) {
    int64_t prev = 0;
    for (const Cell& cell : data.cells) {
      const int64_t v = cell.values[static_cast<size_t>(d)];
      PutVarint(out, Zigzag(v - prev));
      prev = v;
    }
  }
  // Counts (non-negative in practice; the u64 bit pattern round-trips any
  // value regardless).
  for (const Cell& cell : data.cells) {
    PutVarint(out, static_cast<uint64_t>(cell.count));
  }
  // Point-cell bitmap: bit i set when cell i's min and max are bit-equal
  // to its measure (true for every count==1 cell), so its min/max need no
  // storage.
  std::vector<uint8_t> bitmap((cells + 7) / 8, 0);
  size_t full_state = 0;
  for (size_t i = 0; i < cells; ++i) {
    const Cell& cell = data.cells[i];
    if (BitEqual(cell.min, cell.measure) && BitEqual(cell.max, cell.measure)) {
      bitmap[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    } else {
      ++full_state;
    }
  }
  PutBytes(out, bitmap.data(), bitmap.size());
  // Double planes: measures for all cells; min/max only for cells with a
  // distinct fold state.
  std::vector<double> column;
  column.reserve(cells);
  for (const Cell& cell : data.cells) column.push_back(cell.measure);
  EncodeDoublePlanes(column, out);
  column.clear();
  for (size_t i = 0; i < cells; ++i) {
    if ((bitmap[i / 8] & (1u << (i % 8))) == 0) {
      column.push_back(data.cells[i].min);
    }
  }
  AAC_CHECK_EQ(column.size(), full_state);
  EncodeDoublePlanes(column, out);
  column.clear();
  for (size_t i = 0; i < cells; ++i) {
    if ((bitmap[i / 8] & (1u << (i % 8))) == 0) {
      column.push_back(data.cells[i].max);
    }
  }
  EncodeDoublePlanes(column, out);
}

bool DecodeRawPayload(int num_dims, size_t cells, Reader& r, ChunkData* out) {
  if (r.remaining() != RawPayloadBytes(num_dims, cells)) return false;
  out->cells.assign(cells, Cell{});
  for (Cell& cell : out->cells) {
    for (int d = 0; d < num_dims; ++d) {
      if (!r.Bytes(&cell.values[static_cast<size_t>(d)], 4)) return false;
    }
    if (!r.Bytes(&cell.measure, 8) || !r.Bytes(&cell.count, 8) ||
        !r.Bytes(&cell.min, 8) || !r.Bytes(&cell.max, 8)) {
      return false;
    }
  }
  return true;
}

bool DecodeColumnPayload(int num_dims, size_t cells, Reader& r,
                         ChunkData* out) {
  // Each cell consumes at least one payload byte (its count varint), so a
  // cell count beyond the payload size is structurally impossible — reject
  // before sizing any buffer by it.
  if (cells > r.remaining() + 1) return false;
  out->cells.assign(cells, Cell{});
  for (int d = 0; d < num_dims; ++d) {
    int64_t prev = 0;
    for (Cell& cell : out->cells) {
      uint64_t encoded;
      if (!r.Varint(&encoded)) return false;
      const int64_t v = prev + Unzigzag(encoded);
      if (v < INT32_MIN || v > INT32_MAX) return false;
      cell.values[static_cast<size_t>(d)] = static_cast<int32_t>(v);
      prev = v;
    }
  }
  for (Cell& cell : out->cells) {
    uint64_t count;
    if (!r.Varint(&count)) return false;
    cell.count = static_cast<int64_t>(count);
  }
  std::vector<uint8_t> bitmap((cells + 7) / 8);
  if (!r.Bytes(bitmap.data(), bitmap.size())) return false;
  size_t full_state = 0;
  for (size_t i = 0; i < cells; ++i) {
    if ((bitmap[i / 8] & (1u << (i % 8))) == 0) ++full_state;
  }
  std::vector<double> column;
  if (!DecodeDoublePlanes(r, cells, &column)) return false;
  for (size_t i = 0; i < cells; ++i) out->cells[i].measure = column[i];
  if (!DecodeDoublePlanes(r, full_state, &column)) return false;
  size_t j = 0;
  for (size_t i = 0; i < cells; ++i) {
    if ((bitmap[i / 8] & (1u << (i % 8))) == 0) {
      out->cells[i].min = column[j++];
    } else {
      out->cells[i].min = out->cells[i].measure;
    }
  }
  if (!DecodeDoublePlanes(r, full_state, &column)) return false;
  j = 0;
  for (size_t i = 0; i < cells; ++i) {
    if ((bitmap[i / 8] & (1u << (i % 8))) == 0) {
      out->cells[i].max = column[j++];
    } else {
      out->cells[i].max = out->cells[i].measure;
    }
  }
  return true;
}

}  // namespace

void EncodeChunk(int num_dims, const ChunkData& data,
                 std::vector<uint8_t>* out, EncodedChunkInfo* info) {
  AAC_CHECK(out != nullptr);
  AAC_CHECK(num_dims >= 1 && num_dims <= kMaxDims);
  const size_t cells = data.cells.size();
  const size_t raw_bytes = RawPayloadBytes(num_dims, cells);

  std::vector<uint8_t> column_payload;
  EncodeColumnPayload(num_dims, data, &column_payload);
  const bool raw = column_payload.size() >= raw_bytes;

  out->clear();
  out->reserve(kHeaderBytes + 10 +
               (raw ? raw_bytes : column_payload.size()) + kChecksumBytes);
  PutScalar(out, kMagic);
  out->push_back(kVersion);
  out->push_back(raw ? kFlagRaw : 0);
  out->push_back(static_cast<uint8_t>(num_dims));
  out->push_back(0);
  PutScalar(out, static_cast<int64_t>(data.gb));
  PutScalar(out, static_cast<int64_t>(data.chunk));
  PutVarint(out, static_cast<uint64_t>(cells));
  if (raw) {
    EncodeRawPayload(num_dims, data, out);
  } else {
    PutBytes(out, column_payload.data(), column_payload.size());
  }
  PutScalar(out, Fnv1a(out->data(), out->size()));

  if (info != nullptr) {
    info->stored_raw = raw;
    info->raw_payload_bytes = static_cast<int64_t>(raw_bytes);
    info->encoded_bytes = static_cast<int64_t>(out->size());
  }
}

bool DecodeChunk(int num_dims, const uint8_t* blob, size_t size,
                 ChunkData* out) {
  AAC_CHECK(out != nullptr);
  if (blob == nullptr || size < kHeaderBytes + 1 + kChecksumBytes) {
    return false;
  }
  // Checksum first: any truncated or corrupted blob is rejected before a
  // single payload byte is interpreted.
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, blob + size - kChecksumBytes, kChecksumBytes);
  if (Fnv1a(blob, size - kChecksumBytes) != stored_checksum) return false;

  Reader r{blob, blob + size - kChecksumBytes};
  uint32_t magic;
  uint8_t version, flags, dims, reserved;
  if (!r.Bytes(&magic, 4) || !r.Byte(&version) || !r.Byte(&flags) ||
      !r.Byte(&dims) || !r.Byte(&reserved)) {
    return false;
  }
  if (magic != kMagic || version != kVersion || dims != num_dims ||
      (flags & ~kFlagRaw) != 0) {
    return false;
  }
  int64_t gb, chunk;
  if (!r.Bytes(&gb, 8) || !r.Bytes(&chunk, 8)) return false;
  uint64_t cells;
  if (!r.Varint(&cells)) return false;
  if (cells > (size << 3)) return false;  // coarse sanity before allocation

  out->gb = static_cast<GroupById>(gb);
  out->chunk = static_cast<ChunkId>(chunk);
  const bool ok =
      (flags & kFlagRaw) != 0
          ? DecodeRawPayload(num_dims, static_cast<size_t>(cells), r, out)
          : DecodeColumnPayload(num_dims, static_cast<size_t>(cells), r, out);
  // The payload must consume the blob exactly — trailing garbage would
  // mean the encoder and decoder disagree on the format.
  return ok && r.remaining() == 0;
}

}  // namespace aac
