#include "storage/chunk_codec.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/check.h"
#include "util/word_checksum.h"

namespace aac {
namespace {

// The word loads below (run finding, eight-varint reads, plane transposes)
// take byte j of a word to be the j-th byte in memory.
static_assert(std::endian::native == std::endian::little,
              "the chunk codec's word compares assume little-endian");

constexpr uint32_t kMagic = 0x5A434141;  // "AACZ" little-endian
// Version 2: the trailer is WordChecksum (version 1's was FNV-1a). The
// payload format is the same.
constexpr uint8_t kVersion = 2;
constexpr uint8_t kFlagRaw = 0x01;
// Fixed-size prefix: magic + version + flags + num_dims + reserved + gb +
// chunk.
constexpr size_t kHeaderBytes = 4 + 1 + 1 + 1 + 1 + 8 + 8;
constexpr size_t kChecksumBytes = 8;
constexpr size_t kMaxVarintBytes = 10;
// A zigzagged delta between two int32 coordinates is below 2^33: 5 bytes.
// The decoder rejects a larger one before adding it, so the running
// coordinate cannot overflow.
constexpr size_t kMaxCoordVarintBytes = 5;
constexpr uint64_t kMaxCoordZigzag = (uint64_t{1} << 33) - 1;
// Raw payload cost per cell beyond the coordinates: measure, count, min,
// max.
constexpr size_t kFoldStateBytes = 32;

constexpr uint64_t kBytes01 = 0x0101010101010101ULL;
constexpr uint64_t kBytes7F = 0x7F7F7F7F7F7F7F7FULL;
constexpr uint64_t kBytes80 = 0x8080808080808080ULL;

uint64_t Load64(const uint8_t* p) {
  uint64_t word;
  std::memcpy(&word, p, sizeof(word));
  return word;
}

template <typename T>
uint8_t* PutScalar(uint8_t* out, T value) {
  std::memcpy(out, &value, sizeof(value));
  return out + sizeof(value);
}

uint8_t* PutVarint(uint8_t* out, uint64_t value) {
  while (value >= 0x80) {
    *out++ = static_cast<uint8_t>(value) | 0x80;
    value >>= 7;
  }
  *out++ = static_cast<uint8_t>(value);
  return out;
}

/// Reads one varint of at most kMaxVarintBytes from [*pos, end). False if
/// it runs past `end` or is over-long.
bool GetVarint(const uint8_t** pos, const uint8_t* end, uint64_t* value) {
  const uint8_t* p = *pos;
  if (p != end && *p < 0x80) {  // one byte: nearly every delta and count
    *value = *p;
    *pos = p + 1;
    return true;
  }
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const uint8_t b = *p++;
    v |= static_cast<uint64_t>(b & 0x7F) << shift;
    if ((b & 0x80) == 0) {
      *value = v;
      *pos = p;
      return true;
    }
  }
  return false;  // over-long varint
}

uint64_t Zigzag(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

int64_t Unzigzag(uint64_t value) {
  return static_cast<int64_t>(value >> 1) ^ -static_cast<int64_t>(value & 1);
}

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool PointCell(const uint8_t* bitmap, size_t i) {
  return (bitmap[i / 8] & (1u << (i % 8))) != 0;
}

// --- Byte-plane RLE ------------------------------------------------------
//
// A plane block serializes m doubles as: varint m, then 8 planes (plane p
// = byte p of each double's IEEE-754 bits), each plane RLE-coded with
// varint tokens: (len << 1) | 1 followed by one byte = run of `len` copies;
// (len << 1) followed by `len` bytes = literal. len is never zero. Every
// maximal run of at least kMinRunLen equal bytes is one run token; the
// bytes between such runs are one literal.

constexpr size_t kMinRunLen = 4;  // below this a literal is cheaper
// The encoder's planes are followed by this much readable scratch, so the
// word loads at a plane's tail stay in bounds.
constexpr size_t kPlanePad = 8;

// Worst-case RLE size of an m-byte plane. A literal of L bytes costs at
// most L + 1 + L/64 (its varint); a run of R >= 4 bytes costs at most
// R - 1; literals are never adjacent, so they number at most the runs + 1.
size_t PlaneBound(size_t m) { return m + m / 64 + 1; }

// High bit of byte j set iff byte j of `x` is zero. Exact: the add never
// carries across a byte.
uint64_t ZeroBytes(uint64_t x) {
  return ~(((x & kBytes7F) + kBytes7F) | x | kBytes7F);
}

// The first k in [from, n) where bytes k..k+3 are equal, or n. Since
// `from` starts a maximal run, k starts one too: the next run token.
size_t NextRunStart(const uint8_t* bytes, size_t from, size_t n) {
  // Six starts per word pair: byte j of `eq` says bytes[i+j] ==
  // bytes[i+j+1], so `starts` marks j in 0..5 with three equal neighbours.
  for (size_t i = from; i + kMinRunLen <= n; i += 6) {
    const uint64_t eq = ZeroBytes(Load64(bytes + i) ^ Load64(bytes + i + 1));
    const uint64_t starts = eq & (eq >> 8) & (eq >> 16);
    if (starts != 0) {
      // The padding may fake a run past n; only starts before n - 3 count,
      // and none can follow a fake one.
      const size_t k = i + static_cast<size_t>(std::countr_zero(starts)) / 8;
      return k + kMinRunLen <= n ? k : n;
    }
  }
  return n;
}

// The end of the maximal run of bytes[k] that starts at k (at least
// kMinRunLen long), capped at n.
size_t RunEnd(const uint8_t* bytes, size_t k, size_t n) {
  const uint64_t fill = bytes[k] * kBytes01;
  size_t end = k + kMinRunLen;
  while (end < n) {
    const uint64_t diff = Load64(bytes + end) ^ fill;
    if (diff != 0) {
      end += static_cast<size_t>(std::countr_zero(diff)) / 8;
      break;
    }
    end += 8;
  }
  return std::min(end, n);
}

// `bytes` must be followed by kPlanePad readable bytes.
uint8_t* EncodePlaneRle(const uint8_t* bytes, size_t n, uint8_t* out) {
  size_t literal = 0;
  while (literal < n) {
    const size_t run = NextRunStart(bytes, literal, n);
    if (run > literal) {
      out = PutVarint(out, static_cast<uint64_t>(run - literal) << 1);
      std::memcpy(out, bytes + literal, run - literal);
      out += run - literal;
    }
    if (run == n) break;
    const size_t end = RunEnd(bytes, run, n);
    out = PutVarint(out, (static_cast<uint64_t>(end - run) << 1) | 1);
    *out++ = bytes[run];
    literal = end;
  }
  return out;
}

bool DecodePlaneRle(const uint8_t** pos, const uint8_t* end, uint8_t* dst,
                    size_t n) {
  size_t filled = 0;
  while (filled < n) {
    uint64_t token;
    if (!GetVarint(pos, end, &token)) return false;
    const uint64_t len = token >> 1;
    // A zero-length token or one overshooting the plane is structural
    // corruption; rejecting here also bounds decode work by the plane size.
    if (len == 0 || len > n - filled) return false;
    const size_t bytes = (token & 1) != 0 ? 1 : static_cast<size_t>(len);
    if (static_cast<size_t>(end - *pos) < bytes) return false;
    if ((token & 1) != 0) {
      std::memset(dst + filled, **pos, static_cast<size_t>(len));
    } else {
      std::memcpy(dst + filled, *pos, bytes);
    }
    *pos += bytes;
    filled += static_cast<size_t>(len);
  }
  return true;
}

// Swaps the bytes of `a` selected by `mask << shift` with those of `b`
// selected by `mask`.
void SwapMasked(uint64_t& a, uint64_t& b, int shift, uint64_t mask) {
  const uint64_t t = ((a >> shift) ^ b) & mask;
  b ^= t;
  a ^= t << shift;
}

// Transposes the 8x8 byte matrix whose row r is word r: afterwards byte p
// of word k holds what byte k of word p held. Three rounds swap the
// off-diagonal 4x4, then 2x2, then 1x1 blocks.
void Transpose8x8(uint64_t* w) {
  constexpr uint64_t k4 = 0x00000000FFFFFFFFULL;
  constexpr uint64_t k2 = 0x0000FFFF0000FFFFULL;
  constexpr uint64_t k1 = 0x00FF00FF00FF00FFULL;
  SwapMasked(w[0], w[4], 32, k4);
  SwapMasked(w[1], w[5], 32, k4);
  SwapMasked(w[2], w[6], 32, k4);
  SwapMasked(w[3], w[7], 32, k4);
  SwapMasked(w[0], w[2], 16, k2);
  SwapMasked(w[1], w[3], 16, k2);
  SwapMasked(w[4], w[6], 16, k2);
  SwapMasked(w[5], w[7], 16, k2);
  SwapMasked(w[0], w[1], 8, k1);
  SwapMasked(w[2], w[3], 8, k1);
  SwapMasked(w[4], w[5], 8, k1);
  SwapMasked(w[6], w[7], 8, k1);
}

// Splits one double column into its 8 byte planes in one pass, eight
// values at a time: plane p, at planes + p * stride, gets byte p of each
// value. With a bitmap, takes only the cells whose point bit is clear.
// Returns the column's length.
size_t TransposeColumn(const std::vector<Cell>& cells, double Cell::*field,
                       const uint8_t* point_bits, uint8_t* planes,
                       size_t stride) {
  uint64_t w[8];
  size_t pending = 0;
  size_t m = 0;
  for (size_t i = 0; i < cells.size(); ++i) {
    if (point_bits != nullptr && PointCell(point_bits, i)) continue;
    w[pending++] = std::bit_cast<uint64_t>(cells[i].*field);
    if (pending == 8) {
      Transpose8x8(w);
      for (size_t p = 0; p < 8; ++p) {
        std::memcpy(planes + p * stride + m, &w[p], 8);
      }
      m += 8;
      pending = 0;
    }
  }
  for (size_t k = 0; k < pending; ++k, ++m) {
    for (size_t p = 0; p < 8; ++p) {
      planes[p * stride + m] = static_cast<uint8_t>(w[k] >> (8 * p));
    }
  }
  return m;
}

uint8_t* EncodeDoublePlanes(const uint8_t* planes, size_t stride, size_t m,
                            uint8_t* out) {
  out = PutVarint(out, static_cast<uint64_t>(m));
  for (size_t p = 0; p < 8; ++p) {
    out = EncodePlaneRle(planes + p * stride, m, out);
  }
  return out;
}

// Decodes one plane block of `expected` doubles: its RLE planes into
// `planes` (8 x expected bytes of scratch), then the IEEE-754 bits of each
// double, reassembled eight at a time, into `bits`.
bool DecodeDoublePlanes(const uint8_t** pos, const uint8_t* end,
                        size_t expected, uint8_t* planes, uint64_t* bits) {
  uint64_t m = 0;
  if (!GetVarint(pos, end, &m) || m != expected) return false;
  for (size_t p = 0; p < 8; ++p) {
    if (!DecodePlaneRle(pos, end, planes + p * expected, expected)) {
      return false;
    }
  }
  size_t j = 0;
  for (; j + 8 <= expected; j += 8) {
    uint64_t w[8];
    for (size_t p = 0; p < 8; ++p) w[p] = Load64(planes + p * expected + j);
    Transpose8x8(w);
    std::memcpy(bits + j, w, sizeof(w));
  }
  for (; j < expected; ++j) {
    uint64_t v = 0;
    for (size_t p = 0; p < 8; ++p) {
      v |= static_cast<uint64_t>(planes[p * expected + j]) << (8 * p);
    }
    bits[j] = v;
  }
  return true;
}

size_t RawPayloadBytes(int num_dims, size_t cells) {
  return cells * (static_cast<size_t>(num_dims) * 4 + kFoldStateBytes);
}

// Worst-case column payload: 5-byte coordinate deltas, 10-byte counts, the
// bitmap and three plane blocks of at most `cells` doubles.
size_t ColumnPayloadBound(int num_dims, size_t cells) {
  return cells * (static_cast<size_t>(num_dims) * kMaxCoordVarintBytes +
                  kMaxVarintBytes) +
         (cells + 7) / 8 + 3 * (kMaxVarintBytes + 8 * PlaneBound(cells));
}

uint8_t* EncodeRawPayload(int num_dims, const ChunkData& data, uint8_t* out) {
  const size_t coord_bytes = static_cast<size_t>(num_dims) * 4;
  for (const Cell& cell : data.cells) {
    std::memcpy(out, cell.values.data(), coord_bytes);
    out += coord_bytes;
    out = PutScalar(out, cell.measure);
    out = PutScalar(out, cell.count);
    out = PutScalar(out, cell.min);
    out = PutScalar(out, cell.max);
  }
  return out;
}

uint8_t* EncodeColumnPayload(int num_dims, const ChunkData& data,
                             uint8_t* out) {
  const std::vector<Cell>& cells = data.cells;
  const size_t n = cells.size();
  // Coordinates: one delta stream per dimension, stored cell order.
  for (size_t d = 0; d < static_cast<size_t>(num_dims); ++d) {
    int64_t prev = 0;
    for (const Cell& cell : cells) {
      const int64_t v = cell.values[d];
      out = PutVarint(out, Zigzag(v - prev));
      prev = v;
    }
  }
  // Counts (non-negative in practice; the u64 bit pattern round-trips any
  // value regardless).
  for (const Cell& cell : cells) {
    out = PutVarint(out, static_cast<uint64_t>(cell.count));
  }
  // Point-cell bitmap: bit i set when cell i's min and max are bit-equal
  // to its measure (true for every count==1 cell), so its min/max need no
  // storage.
  uint8_t* bitmap = out;
  std::memset(bitmap, 0, (n + 7) / 8);
  for (size_t i = 0; i < n; ++i) {
    const Cell& cell = cells[i];
    if (BitEqual(cell.min, cell.measure) && BitEqual(cell.max, cell.measure)) {
      bitmap[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
    }
  }
  out += (n + 7) / 8;
  // Double planes: measures for all cells; min/max only for cells with a
  // distinct fold state.
  const size_t stride = n + kPlanePad;
  std::vector<uint8_t> planes(8 * stride);
  size_t m = TransposeColumn(cells, &Cell::measure, nullptr, planes.data(),
                             stride);
  out = EncodeDoublePlanes(planes.data(), stride, m, out);
  m = TransposeColumn(cells, &Cell::min, bitmap, planes.data(), stride);
  out = EncodeDoublePlanes(planes.data(), stride, m, out);
  m = TransposeColumn(cells, &Cell::max, bitmap, planes.data(), stride);
  return EncodeDoublePlanes(planes.data(), stride, m, out);
}

bool DecodeRawPayload(int num_dims, size_t cells, const uint8_t* pos,
                      const uint8_t* end, ChunkData* out) {
  if (static_cast<size_t>(end - pos) != RawPayloadBytes(num_dims, cells)) {
    return false;
  }
  const size_t coord_bytes = static_cast<size_t>(num_dims) * 4;
  out->cells.assign(cells, Cell{});
  for (Cell& cell : out->cells) {
    std::memcpy(cell.values.data(), pos, coord_bytes);
    pos += coord_bytes;
    std::memcpy(&cell.measure, pos, 8);
    std::memcpy(&cell.count, pos + 8, 8);
    std::memcpy(&cell.min, pos + 16, 8);
    std::memcpy(&cell.max, pos + 24, 8);
    pos += kFoldStateBytes;
  }
  return true;
}

// Reads `n` varints from [*pos, end), calling put(i, value) for each and
// stopping at the first false. Eight one-byte varints go at once while
// the next word has no continuation bit.
template <typename Put>
bool GetVarints(const uint8_t** pos, const uint8_t* end, size_t n, Put put) {
  const uint8_t* p = *pos;
  size_t i = 0;
  while (i < n) {
    if (n - i >= 8 && end - p >= 8) {
      const uint64_t word = Load64(p);
      if ((word & kBytes80) == 0) {
        for (size_t k = 0; k < 8; ++k) {
          if (!put(i + k, (word >> (8 * k)) & 0x7F)) return false;
        }
        p += 8;
        i += 8;
        continue;
      }
    }
    uint64_t value;
    if (!GetVarint(&p, end, &value) || !put(i, value)) return false;
    ++i;
  }
  *pos = p;
  return true;
}

bool DecodeColumnPayload(int num_dims, size_t cells, const uint8_t* pos,
                         const uint8_t* end, ChunkData* out) {
  // Each cell consumes at least one payload byte (its count varint), so a
  // cell count beyond the payload size is structurally impossible — reject
  // before sizing any buffer by it.
  if (cells > static_cast<size_t>(end - pos) + 1) return false;
  out->cells.assign(cells, Cell{});
  Cell* const dst = out->cells.data();
  for (size_t d = 0; d < static_cast<size_t>(num_dims); ++d) {
    int64_t prev = 0;
    const bool ok = GetVarints(&pos, end, cells, [&](size_t i, uint64_t z) {
      if (z > kMaxCoordZigzag) return false;
      prev += Unzigzag(z);
      if (prev < INT32_MIN || prev > INT32_MAX) return false;
      dst[i].values[d] = static_cast<int32_t>(prev);
      return true;
    });
    if (!ok) return false;
  }
  if (!GetVarints(&pos, end, cells, [&](size_t i, uint64_t count) {
        dst[i].count = static_cast<int64_t>(count);
        return true;
      })) {
    return false;
  }
  const size_t bitmap_bytes = (cells + 7) / 8;
  if (static_cast<size_t>(end - pos) < bitmap_bytes) return false;
  const uint8_t* bitmap = pos;
  pos += bitmap_bytes;
  size_t full_state = 0;
  for (size_t i = 0; i < cells; ++i) full_state += PointCell(bitmap, i) ? 0 : 1;

  // One scratch for the planes of the largest block and the bits of all
  // three: measures, then the full-state mins and maxes.
  std::vector<uint64_t> scratch(cells + cells + 2 * full_state);
  auto* planes = reinterpret_cast<uint8_t*>(scratch.data());
  uint64_t* measures = scratch.data() + cells;
  uint64_t* mins = measures + cells;
  uint64_t* maxes = mins + full_state;
  if (!DecodeDoublePlanes(&pos, end, cells, planes, measures) ||
      !DecodeDoublePlanes(&pos, end, full_state, planes, mins) ||
      !DecodeDoublePlanes(&pos, end, full_state, planes, maxes)) {
    return false;
  }
  size_t j = 0;
  for (size_t i = 0; i < cells; ++i) {
    Cell& cell = out->cells[i];
    cell.measure = std::bit_cast<double>(measures[i]);
    if (PointCell(bitmap, i)) {
      cell.min = cell.measure;
      cell.max = cell.measure;
    } else {
      cell.min = std::bit_cast<double>(mins[j]);
      cell.max = std::bit_cast<double>(maxes[j]);
      ++j;
    }
  }
  // The payload must consume the blob exactly — trailing garbage would
  // mean the encoder and decoder disagree on the format.
  return pos == end;
}

}  // namespace

void EncodeChunk(int num_dims, const ChunkData& data,
                 std::vector<uint8_t>* out, EncodedChunkInfo* info) {
  AAC_CHECK(out != nullptr);
  AAC_CHECK(num_dims >= 1 && num_dims <= kMaxDims);
  const size_t cells = data.cells.size();
  const size_t raw_bytes = RawPayloadBytes(num_dims, cells);
  const size_t bound =
      kHeaderBytes + kMaxVarintBytes +
      std::max(ColumnPayloadBound(num_dims, cells), raw_bytes) +
      kChecksumBytes;

  out->resize(bound);
  uint8_t* const blob = out->data();
  uint8_t* p = PutScalar(blob, kMagic);
  *p++ = kVersion;
  uint8_t* const flags = p++;
  *p++ = static_cast<uint8_t>(num_dims);
  *p++ = 0;
  p = PutScalar(p, static_cast<int64_t>(data.gb));
  p = PutScalar(p, static_cast<int64_t>(data.chunk));
  p = PutVarint(p, static_cast<uint64_t>(cells));
  uint8_t* const payload = p;
  p = EncodeColumnPayload(num_dims, data, payload);
  const bool raw = static_cast<size_t>(p - payload) >= raw_bytes;
  if (raw) p = EncodeRawPayload(num_dims, data, payload);
  *flags = raw ? kFlagRaw : 0;
  p = PutScalar(p, WordChecksum(blob, static_cast<size_t>(p - blob)));
  const size_t size = static_cast<size_t>(p - blob);
  AAC_CHECK_LE(size, bound);
  out->resize(size);
  // The blob outlives the call in the warm tier, which budgets its size:
  // give back the worst-case bound's slack.
  out->shrink_to_fit();

  if (info != nullptr) {
    info->stored_raw = raw;
    info->raw_payload_bytes = static_cast<int64_t>(raw_bytes);
    info->encoded_bytes = static_cast<int64_t>(size);
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
  const uint8_t* const end = blob + size - kChecksumBytes;
  uint64_t stored_checksum;
  std::memcpy(&stored_checksum, end, kChecksumBytes);
  if (WordChecksum(blob, size - kChecksumBytes) != stored_checksum) {
    return false;
  }

  uint32_t magic;
  std::memcpy(&magic, blob, 4);
  const uint8_t version = blob[4];
  const uint8_t flags = blob[5];
  const uint8_t dims = blob[6];
  if (magic != kMagic || version != kVersion || dims != num_dims ||
      (flags & ~kFlagRaw) != 0) {
    return false;
  }
  int64_t gb, chunk;
  std::memcpy(&gb, blob + 8, 8);
  std::memcpy(&chunk, blob + 16, 8);
  const uint8_t* pos = blob + kHeaderBytes;
  uint64_t cells;
  if (!GetVarint(&pos, end, &cells)) return false;
  if (cells > (size << 3)) return false;  // coarse sanity before allocation

  out->gb = static_cast<GroupById>(gb);
  out->chunk = static_cast<ChunkId>(chunk);
  return (flags & kFlagRaw) != 0
             ? DecodeRawPayload(num_dims, static_cast<size_t>(cells), pos,
                                end, out)
             : DecodeColumnPayload(num_dims, static_cast<size_t>(cells), pos,
                                   end, out);
}

}  // namespace aac
