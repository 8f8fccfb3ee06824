#include "storage/chunk_codec.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <vector>

#include "storage/chunk_data.h"
#include "util/fnv1a.h"
#include "util/rng.h"
#include "util/word_checksum.h"

namespace aac {
namespace {

bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

// Exact structural equality: stored cell order, coordinates (all kMaxDims
// slots) and every FoldState double compared bit for bit — the codec's
// contract is stronger than ChunkDataEquals' epsilon/canonicalize check.
::testing::AssertionResult BitIdentical(const ChunkData& a,
                                        const ChunkData& b) {
  if (a.gb != b.gb || a.chunk != b.chunk) {
    return ::testing::AssertionFailure() << "key mismatch";
  }
  if (a.cells.size() != b.cells.size()) {
    return ::testing::AssertionFailure()
           << "cell count " << a.cells.size() << " vs " << b.cells.size();
  }
  for (size_t i = 0; i < a.cells.size(); ++i) {
    const Cell& x = a.cells[i];
    const Cell& y = b.cells[i];
    for (size_t d = 0; d < kMaxDims; ++d) {
      if (x.values[d] != y.values[d]) {
        return ::testing::AssertionFailure()
               << "cell " << i << " dim " << d << ": " << x.values[d]
               << " vs " << y.values[d];
      }
    }
    if (x.count != y.count) {
      return ::testing::AssertionFailure() << "cell " << i << " count";
    }
    if (!BitEqual(x.measure, y.measure) || !BitEqual(x.min, y.min) ||
        !BitEqual(x.max, y.max)) {
      return ::testing::AssertionFailure()
             << "cell " << i << " aggregate bits differ";
    }
  }
  return ::testing::AssertionSuccess();
}

// A double from the full spectrum of IEEE-754 oddities: ordinary values,
// signed zeros, denormals, infinities, NaNs with payloads, and raw random
// bit patterns (which cover everything else).
double WildDouble(Rng& rng) {
  switch (rng.Uniform(8)) {
    case 0:
      return rng.UniformDouble() * 1e6;
    case 1:
      return -rng.UniformDouble() * 1e-6;
    case 2:
      return rng.Bernoulli(0.5) ? 0.0 : -0.0;
    case 3:  // denormal
      return std::bit_cast<double>(rng.Uniform(1ULL << 52));
    case 4:
      return rng.Bernoulli(0.5) ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity();
    case 5:  // NaN with a random payload
      return std::bit_cast<double>(0x7ff8000000000000ULL | rng.NextU64());
    case 6:  // realistic aggregate: smallish integer-ish sum
      return static_cast<double>(rng.UniformInt(-10'000, 10'000));
    default:
      return std::bit_cast<double>(rng.NextU64());
  }
}

ChunkData RandomChunk(Rng& rng, int num_dims, int max_cells,
                      bool sorted_realistic) {
  ChunkData data;
  data.gb = rng.UniformInt(0, 1'000'000);
  data.chunk = rng.UniformInt(0, 1'000'000'000);
  const int cells = static_cast<int>(rng.Uniform(
      static_cast<uint64_t>(max_cells) + 1));
  for (int i = 0; i < cells; ++i) {
    Cell c;
    for (int d = 0; d < num_dims; ++d) {
      c.values[static_cast<size_t>(d)] =
          sorted_realistic
              ? static_cast<int32_t>(rng.UniformInt(0, 500))
              : static_cast<int32_t>(rng.NextU64());
    }
    if (sorted_realistic && rng.Bernoulli(0.7)) {
      // Count-1 cell: min == max == measure (the point-cell bitmap path).
      InitCellAggregates(c, static_cast<double>(rng.UniformInt(0, 1000)));
    } else {
      c.measure = WildDouble(rng);
      c.count = rng.Bernoulli(0.2) ? rng.UniformInt(-5, 5)
                                   : rng.UniformInt(0, 1'000'000);
      c.min = WildDouble(rng);
      c.max = WildDouble(rng);
    }
    data.cells.push_back(c);
  }
  if (sorted_realistic) {
    // Canonical order, as cached chunks come out of the fold/backend.
    CanonicalizeChunkData(num_dims, &data);
  }
  return data;
}

struct Draw {
  int num_dims;
  ChunkData data;
};

// 1,200 seeded chunks, realistic and adversarial, with their
// dimensionality; every 50th may hold up to 2,000 cells.
std::vector<Draw> RoundTripDraws() {
  Rng rng(20260808);
  std::vector<Draw> draws;
  for (int iter = 0; iter < 1200; ++iter) {
    const int num_dims = static_cast<int>(rng.UniformInt(1, kMaxDims));
    const bool realistic = iter % 3 != 0;
    draws.push_back({num_dims, RandomChunk(rng, num_dims,
                                           /*max_cells=*/iter % 50 == 0
                                               ? 2000
                                               : 120,
                                           realistic)});
  }
  return draws;
}

// The codec's core property: 1,000+ randomized chunks, realistic and
// adversarial, every round trip bit-identical.
TEST(ChunkCodecTest, RandomizedRoundTripBitIdentity) {
  const std::vector<Draw> draws = RoundTripDraws();
  int raw_fallbacks = 0;
  for (size_t iter = 0; iter < draws.size(); ++iter) {
    const auto& [num_dims, original] = draws[iter];
    std::vector<uint8_t> blob;
    EncodedChunkInfo info;
    EncodeChunk(num_dims, original, &blob, &info);
    EXPECT_EQ(info.encoded_bytes, static_cast<int64_t>(blob.size()));
    raw_fallbacks += info.stored_raw ? 1 : 0;
    ChunkData decoded;
    ASSERT_TRUE(
        DecodeChunk(num_dims, blob.data(), blob.size(), &decoded))
        << "iter " << iter;
    EXPECT_TRUE(BitIdentical(original, decoded)) << "iter " << iter;
  }
  // Both encoder paths must have been exercised.
  EXPECT_GT(raw_fallbacks, 0);
  EXPECT_LT(raw_fallbacks, 1200);
}

// The codec's fixed point: re-encoding a decoded blob reproduces it byte
// for byte. The warm tier leans on this when it re-admits a promoted
// chunk's blob instead of encoding the unchanged chunk again.
TEST(ChunkCodecTest, ReencodingADecodedBlobReproducesIt) {
  std::vector<Draw> draws = RoundTripDraws();
  ChunkData empty;
  empty.gb = 5;
  empty.chunk = 17;
  draws.push_back({4, empty});
  Rng rng(99);  // HighEntropyFallsBackToRaw's chunk
  const size_t raw_draw = draws.size();
  draws.push_back({kMaxDims, RandomChunk(rng, kMaxDims, 200,
                                         /*sorted_realistic=*/false)});
  // Slots at or above num_dims are not stored and decode as zero.
  ChunkData high_slots = RandomChunk(rng, 2, 80, /*sorted_realistic=*/true);
  for (Cell& cell : high_slots.cells) {
    for (size_t d = 2; d < kMaxDims; ++d) {
      cell.values[d] = static_cast<int32_t>(rng.UniformInt(1, 1000));
    }
  }
  ASSERT_FALSE(high_slots.cells.empty());
  draws.push_back({2, high_slots});

  for (size_t iter = 0; iter < draws.size(); ++iter) {
    const auto& [num_dims, original] = draws[iter];
    std::vector<uint8_t> blob;
    EncodedChunkInfo info;
    EncodeChunk(num_dims, original, &blob, &info);
    if (iter == raw_draw) {
      EXPECT_TRUE(info.stored_raw);
    }
    ChunkData decoded;
    ASSERT_TRUE(DecodeChunk(num_dims, blob.data(), blob.size(), &decoded))
        << "iter " << iter;
    std::vector<uint8_t> again;
    EncodeChunk(num_dims, decoded, &again);
    EXPECT_EQ(again, blob) << "iter " << iter;
  }
}

// The payload — every byte between the 24-byte header and the 8-byte
// trailer — is pinned over the round-trip draws, so a faster encoder must
// write exactly the bytes the format always had: the same column layout,
// varints, point-cell bitmap, byte-plane RLE tokens and raw-fallback
// choice. Only the header's version and the trailer may change.
TEST(ChunkCodecTest, PayloadBytesPinned) {
  uint64_t digest = kFnv1aOffsetBasis;
  int64_t payload_bytes = 0;
  for (const auto& [num_dims, data] : RoundTripDraws()) {
    std::vector<uint8_t> blob;
    EncodeChunk(num_dims, data, &blob);
    ASSERT_GE(blob.size(), 24u + 1 + 8);
    digest = Fnv1a(blob.data() + 24, blob.size() - 24 - 8, digest);
    payload_bytes += static_cast<int64_t>(blob.size()) - 24 - 8;
  }
  EXPECT_EQ(payload_bytes, int64_t{2847164});
  EXPECT_EQ(digest, uint64_t{0xa0f0b717c6575d74});
}

TEST(ChunkCodecTest, RealisticDataCompresses) {
  Rng rng(7);
  int64_t raw = 0;
  int64_t encoded = 0;
  for (int iter = 0; iter < 50; ++iter) {
    const ChunkData data = RandomChunk(rng, 3, 400, /*sorted_realistic=*/true);
    std::vector<uint8_t> blob;
    EncodedChunkInfo info;
    EncodeChunk(3, data, &blob, &info);
    raw += info.raw_payload_bytes;
    encoded += info.encoded_bytes;
  }
  // Canonically sorted coords + point-cell bitmap should win clearly.
  EXPECT_LT(encoded, raw / 2);
}

TEST(ChunkCodecTest, EmptyChunkRoundTrips) {
  ChunkData data;
  data.gb = 5;
  data.chunk = 17;
  std::vector<uint8_t> blob;
  EncodeChunk(4, data, &blob);
  ChunkData decoded;
  ASSERT_TRUE(DecodeChunk(4, blob.data(), blob.size(), &decoded));
  EXPECT_EQ(decoded.gb, 5);
  EXPECT_EQ(decoded.chunk, 17);
  EXPECT_TRUE(decoded.cells.empty());
}

TEST(ChunkCodecTest, HighEntropyFallsBackToRaw) {
  Rng rng(99);
  const ChunkData data = RandomChunk(rng, kMaxDims, 200,
                                     /*sorted_realistic=*/false);
  std::vector<uint8_t> blob;
  EncodedChunkInfo info;
  EncodeChunk(kMaxDims, data, &blob, &info);
  EXPECT_TRUE(info.stored_raw);
  // Raw fallback bounds the blob: payload + header + checksum + count.
  EXPECT_LE(info.encoded_bytes, info.raw_payload_bytes + 64);
  ChunkData decoded;
  ASSERT_TRUE(DecodeChunk(kMaxDims, blob.data(), blob.size(), &decoded));
  EXPECT_TRUE(BitIdentical(data, decoded));
}

// Every truncated prefix of a valid blob must be rejected — the trailing
// checksum plus bounds-checked reads make truncation detection exact.
TEST(ChunkCodecTest, TruncatedBufferRejected) {
  Rng rng(42);
  const ChunkData data = RandomChunk(rng, 3, 60, /*sorted_realistic=*/true);
  std::vector<uint8_t> blob;
  EncodeChunk(3, data, &blob);
  ChunkData decoded;
  ASSERT_TRUE(DecodeChunk(3, blob.data(), blob.size(), &decoded));
  for (size_t len = 0; len < blob.size(); ++len) {
    EXPECT_FALSE(DecodeChunk(3, blob.data(), len, &decoded))
        << "prefix of " << len << " bytes accepted";
  }
}

// Every single-bit flip anywhere in the blob must be rejected: the trailer
// catches it before the payload is even parsed.
TEST(ChunkCodecTest, CorruptedBufferRejected) {
  Rng rng(43);
  const ChunkData data = RandomChunk(rng, 2, 40, /*sorted_realistic=*/true);
  std::vector<uint8_t> blob;
  EncodeChunk(2, data, &blob);
  ChunkData decoded;
  for (size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = blob;
      corrupt[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_FALSE(DecodeChunk(2, corrupt.data(), corrupt.size(), &decoded))
          << "flip of bit " << bit << " in byte " << byte << " accepted";
    }
  }
}

// Appends a fresh trailer to `body` (header, cell count and payload).
std::vector<uint8_t> Reseal(std::vector<uint8_t> body) {
  const uint64_t sum = WordChecksum(body.data(), body.size());
  const auto* bytes = reinterpret_cast<const uint8_t*>(&sum);
  body.insert(body.end(), bytes, bytes + sizeof(sum));
  return body;
}

std::vector<uint8_t> Concat(std::initializer_list<std::vector<uint8_t>> parts) {
  std::vector<uint8_t> out;
  for (const std::vector<uint8_t>& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

// `bytes` with [at, at + erase) replaced by `insert`.
std::vector<uint8_t> Splice(std::vector<uint8_t> bytes, size_t at,
                            size_t erase, std::vector<uint8_t> insert) {
  bytes.erase(bytes.begin() + static_cast<long>(at),
              bytes.begin() + static_cast<long>(at + erase));
  bytes.insert(bytes.begin() + static_cast<long>(at), insert.begin(),
               insert.end());
  return bytes;
}

// The trailer rejects every corruption above before the parser runs, so
// here each edited blob is re-sealed and reaches the structural check it
// names. Each blob sits in an exactly sized heap buffer, so under ASan a
// read past its end fails the test.
TEST(ChunkCodecTest, StructuralChecksRejectResealedBlobs) {
  ChunkData data;
  data.gb = 9;
  data.chunk = 4;
  Cell point;
  point.values[0] = 3;
  point.values[1] = 7;
  InitCellAggregates(point, 1.0);
  Cell full;
  full.values[0] = 5;
  full.values[1] = 2;
  full.measure = 2.5;
  full.count = 3;
  full.min = 0.5;
  full.max = 1.5;
  data.cells = {point, full};
  std::vector<uint8_t> blob;
  EncodeChunk(2, data, &blob);

  // header (24) | cell count | payload | trailer (8). The payload opens
  // with the coordinate deltas (zigzag 3, 2; 7, -5), the counts, the
  // point bitmap, the measure block's length and plane 0's literal token.
  const std::vector<uint8_t> header(blob.begin(), blob.begin() + 24);
  const std::vector<uint8_t> two = {0x02};
  ASSERT_EQ(blob[24], 0x02);
  const std::vector<uint8_t> payload(blob.begin() + 25, blob.end() - 8);
  ASSERT_EQ(payload.size(), 66u);
  ASSERT_EQ(std::vector<uint8_t>(payload.begin(), payload.begin() + 9),
            (std::vector<uint8_t>{0x06, 0x04, 0x0E, 0x09, 0x01, 0x03, 0x01,
                                  0x02, 0x04}));
  constexpr size_t kFirstDelta = 0;
  constexpr size_t kPlane0Token = 8;
  const size_t last_token = payload.size() - 2;
  ASSERT_EQ(payload[last_token], 0x02);  // literal of one byte

  const auto decodes = [](const std::vector<uint8_t>& body) {
    const std::vector<uint8_t> sealed = Reseal(body);
    ChunkData out;
    return DecodeChunk(2, sealed.data(), sealed.size(), &out);
  };
  ASSERT_TRUE(decodes(Concat({header, two, payload})));

  std::vector<uint8_t> version1 = header;
  version1[4] = 1;
  std::vector<uint8_t> unknown_flag = header;
  unknown_flag[5] = 0x02;
  std::vector<uint8_t> raw_flag = header;
  raw_flag[5] = 0x01;
  // zigzag(2^63 - 1): added to a positive coordinate it would overflow
  // int64, so the decoder must reject it before adding.
  const std::vector<uint8_t> max_delta = {0xFE, 0xFF, 0xFF, 0xFF, 0xFF,
                                          0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  const struct {
    const char* name;
    std::vector<uint8_t> body;
  } cases[] = {
      {"version 1", Concat({version1, two, payload})},
      {"unknown flag", Concat({unknown_flag, two, payload})},
      {"raw flag over a column payload", Concat({raw_flag, two, payload})},
      {"truncated varint", Concat({header, two, {0x86}})},
      {"over-long varint",
       Concat({header, two,
               Splice(payload, kFirstDelta, 1,
                      std::vector<uint8_t>(11, 0x80))})},
      {"literal past its plane",
       Concat({header, two, Splice(payload, kPlane0Token, 1, {0x06})})},
      {"run past its plane",
       Concat({header, two, Splice(payload, kPlane0Token, 1, {0x07})})},
      // The last token, max plane 7's one-byte literal, as a two-byte run:
      // the rest of the blob still parses, so only the plane bound
      // rejects it.
      {"run past the last plane",
       Concat({header, two, Splice(payload, last_token, 1, {0x05})})},
      {"zero-length literal",
       Concat({header, two, Splice(payload, kPlane0Token, 1, {0x00})})},
      {"zero-length run",
       Concat({header, two, Splice(payload, kPlane0Token, 1, {0x01})})},
      {"cell count past the payload", Concat({header, {0x7F}, payload})},
      {"cell count past the blob",
       Concat({header, {0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, payload})},
      {"coordinate above int32",
       Concat({header, two,
               Splice(payload, kFirstDelta, 1,
                      {0x80, 0x80, 0x80, 0x80, 0x10})})},
      {"coordinate below int32",
       Concat({header, two,
               Splice(payload, kFirstDelta, 1,
                      {0x81, 0x80, 0x80, 0x80, 0x10})})},
      {"delta past any int32 pair",
       Concat({header, two, Splice(payload, kFirstDelta + 1, 1, max_delta)})},
      {"trailing byte",
       Concat({header, two, Splice(payload, payload.size(), 0, {0x00})})},
      {"missing byte",
       Concat({header, two, Splice(payload, payload.size() - 1, 1, {})})},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(decodes(c.body)) << c.name;
  }
}

TEST(ChunkCodecTest, WrongDimensionalityRejected) {
  Rng rng(44);
  const ChunkData data = RandomChunk(rng, 3, 20, /*sorted_realistic=*/true);
  std::vector<uint8_t> blob;
  EncodeChunk(3, data, &blob);
  ChunkData decoded;
  EXPECT_FALSE(DecodeChunk(4, blob.data(), blob.size(), &decoded));
  EXPECT_FALSE(DecodeChunk(2, blob.data(), blob.size(), &decoded));
  EXPECT_TRUE(DecodeChunk(3, blob.data(), blob.size(), &decoded));
}

TEST(ChunkCodecTest, GarbageBufferRejected) {
  Rng rng(45);
  ChunkData decoded;
  EXPECT_FALSE(DecodeChunk(3, nullptr, 0, &decoded));
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<uint8_t> garbage(rng.Uniform(200));
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.NextU64());
    EXPECT_FALSE(DecodeChunk(3, garbage.data(), garbage.size(), &decoded));
  }
}

}  // namespace
}  // namespace aac
