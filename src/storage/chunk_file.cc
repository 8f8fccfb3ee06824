#include "storage/chunk_file.h"

#include <cstdio>
#include <cstring>

#include "util/check.h"
#include "util/fnv1a.h"

namespace aac {

namespace {

constexpr char kMagic[4] = {'A', 'A', 'C', 'F'};
constexpr uint32_t kVersion = 1;

// One tuple's wire image.
struct WireTuple {
  int32_t values[kMaxDims];
  double sum;
  int64_t count;
  double min;
  double max;
};

size_t WireTupleSize(int num_dims) {
  return sizeof(int32_t) * static_cast<size_t>(num_dims) + sizeof(double) * 3 +
         sizeof(int64_t);
}

bool WriteTuple(std::FILE* f, const Cell& cell, int num_dims,
                uint64_t* checksum) {
  unsigned char buf[sizeof(WireTuple)];
  size_t off = 0;
  std::memcpy(buf + off, cell.values.data(),
              sizeof(int32_t) * static_cast<size_t>(num_dims));
  off += sizeof(int32_t) * static_cast<size_t>(num_dims);
  std::memcpy(buf + off, &cell.measure, sizeof(double));
  off += sizeof(double);
  std::memcpy(buf + off, &cell.count, sizeof(int64_t));
  off += sizeof(int64_t);
  std::memcpy(buf + off, &cell.min, sizeof(double));
  off += sizeof(double);
  std::memcpy(buf + off, &cell.max, sizeof(double));
  off += sizeof(double);
  *checksum = Fnv1a(buf, off, *checksum);
  return std::fwrite(buf, 1, off, f) == off;
}

bool ReadTuple(std::FILE* f, Cell* cell, int num_dims, uint64_t* checksum) {
  unsigned char buf[sizeof(WireTuple)];
  const size_t size = WireTupleSize(num_dims);
  if (std::fread(buf, 1, size, f) != size) return false;
  *checksum = Fnv1a(buf, size, *checksum);
  size_t off = 0;
  std::memcpy(cell->values.data(), buf + off,
              sizeof(int32_t) * static_cast<size_t>(num_dims));
  off += sizeof(int32_t) * static_cast<size_t>(num_dims);
  std::memcpy(&cell->measure, buf + off, sizeof(double));
  off += sizeof(double);
  std::memcpy(&cell->count, buf + off, sizeof(int64_t));
  off += sizeof(int64_t);
  std::memcpy(&cell->min, buf + off, sizeof(double));
  off += sizeof(double);
  std::memcpy(&cell->max, buf + off, sizeof(double));
  return true;
}

}  // namespace

bool ChunkFileWriter::Write(const FactTable& table, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "chunk_file: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  const int num_dims = table.grid().schema().num_dims();
  const int64_t num_chunks = table.num_chunks();
  const int64_t num_tuples = table.num_tuples();

  // First pass over tuples to compute the payload checksum; the payload is
  // small enough to write in one order, so compute while writing and patch
  // the header afterwards.
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4;
  const auto u32 = [&](uint32_t v) {
    ok = ok && std::fwrite(&v, sizeof(v), 1, f) == 1;
  };
  const auto i64 = [&](int64_t v) {
    ok = ok && std::fwrite(&v, sizeof(v), 1, f) == 1;
  };
  u32(kVersion);
  u32(static_cast<uint32_t>(num_dims));
  i64(num_chunks);
  i64(num_tuples);
  const long checksum_pos = std::ftell(f);
  uint64_t checksum = kFnv1aOffsetBasis;
  ok = ok && std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;

  // Directory: tuple index at which each chunk starts.
  int64_t running = 0;
  for (ChunkId c = 0; c < num_chunks; ++c) {
    i64(running);
    running += table.ChunkTupleCount(c);
  }
  i64(running);

  // Payload in clustered order.
  for (ChunkId c = 0; c < num_chunks && ok; ++c) {
    for (const Cell& cell : table.ChunkSlice(c)) {
      ok = ok && WriteTuple(f, cell, num_dims, &checksum);
    }
  }
  // Patch the checksum.
  ok = ok && std::fseek(f, checksum_pos, SEEK_SET) == 0 &&
       std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "chunk_file: write to %s failed\n", path.c_str());
  return ok;
}

ChunkFileReader::~ChunkFileReader() {
  if (file_ != nullptr) std::fclose(file_);
}

bool ChunkFileReader::Open(const std::string& path, int expected_dims) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    std::fprintf(stderr, "chunk_file: cannot open %s\n", path.c_str());
    return false;
  }
  char magic[4];
  uint32_t version = 0;
  uint32_t dims = 0;
  uint64_t checksum = 0;
  bool ok = std::fread(magic, 1, 4, file_) == 4 &&
            std::memcmp(magic, kMagic, 4) == 0;
  ok = ok && std::fread(&version, sizeof(version), 1, file_) == 1 &&
       version == kVersion;
  ok = ok && std::fread(&dims, sizeof(dims), 1, file_) == 1;
  ok = ok && std::fread(&num_chunks_, sizeof(num_chunks_), 1, file_) == 1;
  ok = ok && std::fread(&num_tuples_, sizeof(num_tuples_), 1, file_) == 1;
  ok = ok && std::fread(&checksum, sizeof(checksum), 1, file_) == 1;
  if (!ok || static_cast<int>(dims) != expected_dims || num_chunks_ < 0 ||
      num_tuples_ < 0) {
    std::fprintf(stderr, "chunk_file: %s has a bad or mismatched header\n",
                 path.c_str());
    return false;
  }
  num_dims_ = static_cast<int>(dims);
  offsets_.resize(static_cast<size_t>(num_chunks_) + 1);
  ok = std::fread(offsets_.data(), sizeof(int64_t), offsets_.size(), file_) ==
       offsets_.size();
  if (!ok || offsets_.front() != 0 || offsets_.back() != num_tuples_) {
    std::fprintf(stderr, "chunk_file: %s has a corrupt directory\n",
                 path.c_str());
    return false;
  }
  for (size_t i = 1; i < offsets_.size(); ++i) {
    if (offsets_[i] < offsets_[i - 1]) {
      std::fprintf(stderr, "chunk_file: %s has a corrupt directory\n",
                   path.c_str());
      return false;
    }
  }
  payload_start_ = std::ftell(file_);

  // Validate the payload checksum with one full read.
  uint64_t actual = kFnv1aOffsetBasis;
  Cell cell;
  for (int64_t i = 0; i < num_tuples_; ++i) {
    if (!ReadTuple(file_, &cell, num_dims_, &actual)) {
      std::fprintf(stderr, "chunk_file: %s is truncated\n", path.c_str());
      return false;
    }
  }
  if (actual != checksum) {
    std::fprintf(stderr, "chunk_file: %s fails its checksum\n", path.c_str());
    return false;
  }
  return true;
}

std::vector<Cell> ChunkFileReader::ReadChunk(ChunkId chunk) const {
  AAC_CHECK(file_ != nullptr);
  AAC_CHECK(chunk >= 0 && chunk < num_chunks_);
  const int64_t begin = offsets_[static_cast<size_t>(chunk)];
  const int64_t end = offsets_[static_cast<size_t>(chunk) + 1];
  std::vector<Cell> cells(static_cast<size_t>(end - begin));
  const auto tuple_size = static_cast<int64_t>(WireTupleSize(num_dims_));
  AAC_CHECK_EQ(
      std::fseek(file_, static_cast<long>(payload_start_ + begin * tuple_size),
                 SEEK_SET),
      0);
  uint64_t scratch = kFnv1aOffsetBasis;
  for (auto& cell : cells) {
    AAC_CHECK(ReadTuple(file_, &cell, num_dims_, &scratch));
  }
  return cells;
}

std::vector<Cell> ChunkFileReader::ReadAll() const {
  AAC_CHECK(file_ != nullptr);
  AAC_CHECK_EQ(std::fseek(file_, static_cast<long>(payload_start_), SEEK_SET),
               0);
  std::vector<Cell> cells(static_cast<size_t>(num_tuples_));
  uint64_t scratch = kFnv1aOffsetBasis;
  for (auto& cell : cells) {
    AAC_CHECK(ReadTuple(file_, &cell, num_dims_, &scratch));
  }
  return cells;
}

}  // namespace aac
