#include "cache/snapshot.h"

#include <cstdio>
#include <cstring>
#include <vector>

namespace aac {

namespace {

constexpr char kMagic[4] = {'A', 'A', 'C', 'S'};
constexpr uint32_t kVersion = 1;

bool WriteCell(std::FILE* f, const Cell& cell, int num_dims) {
  bool ok = std::fwrite(cell.values.data(), sizeof(int32_t),
                        static_cast<size_t>(num_dims),
                        f) == static_cast<size_t>(num_dims);
  ok = ok && std::fwrite(&cell.measure, sizeof(double), 1, f) == 1;
  ok = ok && std::fwrite(&cell.count, sizeof(int64_t), 1, f) == 1;
  ok = ok && std::fwrite(&cell.min, sizeof(double), 1, f) == 1;
  ok = ok && std::fwrite(&cell.max, sizeof(double), 1, f) == 1;
  return ok;
}

bool ReadCell(std::FILE* f, Cell* cell, int num_dims) {
  bool ok = std::fread(cell->values.data(), sizeof(int32_t),
                       static_cast<size_t>(num_dims),
                       f) == static_cast<size_t>(num_dims);
  ok = ok && std::fread(&cell->measure, sizeof(double), 1, f) == 1;
  ok = ok && std::fread(&cell->count, sizeof(int64_t), 1, f) == 1;
  ok = ok && std::fread(&cell->min, sizeof(double), 1, f) == 1;
  ok = ok && std::fread(&cell->max, sizeof(double), 1, f) == 1;
  return ok;
}

// True when every value id of `cell` lies inside `chunk` of `gb`.
bool InChunk(const ChunkGrid& grid, GroupById gb, ChunkId chunk,
             const Cell& cell) {
  const ChunkCoords coords = grid.CoordsOf(gb, chunk);
  for (int d = 0; d < grid.schema().num_dims(); ++d) {
    const auto [begin, end] = grid.layout(d).ValueRange(
        grid.lattice().LevelOf(gb)[d], coords[static_cast<size_t>(d)]);
    const int32_t v = cell.values[static_cast<size_t>(d)];
    if (v < begin || v >= end) return false;
  }
  return true;
}

}  // namespace

bool CacheSnapshot::Save(const ChunkCache& cache, const ChunkGrid& grid,
                         const std::string& path) {
  const int num_dims = grid.schema().num_dims();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "snapshot: cannot open %s for writing\n",
                 path.c_str());
    return false;
  }
  bool ok = std::fwrite(kMagic, 1, 4, f) == 4;
  const uint32_t version = kVersion;
  const auto dims = static_cast<uint32_t>(num_dims);
  ok = ok && std::fwrite(&version, sizeof(version), 1, f) == 1;
  ok = ok && std::fwrite(&dims, sizeof(dims), 1, f) == 1;
  const auto entries = static_cast<int64_t>(cache.num_entries());
  ok = ok && std::fwrite(&entries, sizeof(entries), 1, f) == 1;

  cache.ForEach([&](const CacheEntryInfo& info) {
    if (!ok) return;
    const ChunkData* data = cache.Peek(info.key);
    if (data == nullptr) {
      ok = false;
      return;
    }
    const int32_t gb = info.key.gb;
    const int64_t chunk = info.key.chunk;
    const uint8_t source =
        info.source == ChunkSource::kBackend ? 0 : 1;
    const double benefit = info.benefit;
    const auto cells = static_cast<int64_t>(data->cells.size());
    ok = ok && std::fwrite(&gb, sizeof(gb), 1, f) == 1;
    ok = ok && std::fwrite(&chunk, sizeof(chunk), 1, f) == 1;
    ok = ok && std::fwrite(&source, sizeof(source), 1, f) == 1;
    ok = ok && std::fwrite(&benefit, sizeof(benefit), 1, f) == 1;
    ok = ok && std::fwrite(&cells, sizeof(cells), 1, f) == 1;
    for (const Cell& cell : data->cells) {
      ok = ok && WriteCell(f, cell, num_dims);
    }
  });
  ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "snapshot: write to %s failed\n", path.c_str());
  return ok;
}

int64_t CacheSnapshot::Load(const std::string& path, const ChunkGrid& grid,
                            ChunkCache* cache) {
  const int num_dims = grid.schema().num_dims();
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "snapshot: cannot open %s\n", path.c_str());
    return -1;
  }
  // Real size of the file, so corrupt counts (a flipped bit can turn
  // "12 cells" into billions) are rejected up front instead of driving a
  // huge allocation or a long garbage-parsing loop.
  std::fseek(f, 0, SEEK_END);
  const int64_t file_bytes = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  const int64_t entry_header_bytes =
      sizeof(int32_t) + sizeof(int64_t) + sizeof(uint8_t) + sizeof(double) +
      sizeof(int64_t);
  const int64_t cell_bytes =
      static_cast<int64_t>(num_dims) * static_cast<int64_t>(sizeof(int32_t)) +
      3 * static_cast<int64_t>(sizeof(double)) + sizeof(int64_t);

  char magic[4];
  uint32_t version = 0;
  uint32_t dims = 0;
  int64_t entries = 0;
  bool ok = std::fread(magic, 1, 4, f) == 4 &&
            std::memcmp(magic, kMagic, 4) == 0;
  ok = ok && std::fread(&version, sizeof(version), 1, f) == 1 &&
       version == kVersion;
  ok = ok && std::fread(&dims, sizeof(dims), 1, f) == 1 &&
       static_cast<int>(dims) == num_dims;
  ok = ok && std::fread(&entries, sizeof(entries), 1, f) == 1 &&
       entries >= 0 && entries <= file_bytes / entry_header_bytes;
  if (!ok) {
    std::fprintf(stderr, "snapshot: %s has a bad header\n", path.c_str());
    std::fclose(f);
    return -1;
  }
  int64_t restored = 0;
  for (int64_t i = 0; i < entries; ++i) {
    int32_t gb = 0;
    int64_t chunk = 0;
    uint8_t source = 0;
    double benefit = 0;
    int64_t cells = 0;
    ok = std::fread(&gb, sizeof(gb), 1, f) == 1;
    ok = ok && std::fread(&chunk, sizeof(chunk), 1, f) == 1;
    ok = ok && std::fread(&source, sizeof(source), 1, f) == 1;
    ok = ok && std::fread(&benefit, sizeof(benefit), 1, f) == 1;
    ok = ok && std::fread(&cells, sizeof(cells), 1, f) == 1;
    // Entry-level sanity: ids outside the grid (listeners index by them),
    // unknown provenance or an impossible cell count mean corruption.
    ok = ok && gb >= 0 && gb < grid.lattice().num_groupbys() && chunk >= 0 &&
         chunk < grid.NumChunks(gb) && source <= 1 && cells >= 0 &&
         cells <= (file_bytes - std::ftell(f)) / cell_bytes;
    if (!ok) break;
    ChunkData data;
    data.gb = gb;
    data.chunk = chunk;
    data.cells.resize(static_cast<size_t>(cells));
    for (auto& cell : data.cells) {
      ok = ok && ReadCell(f, &cell, num_dims) && InChunk(grid, gb, chunk, cell);
    }
    if (!ok) break;
    if (cache->Insert(std::move(data), benefit,
                      source == 0 ? ChunkSource::kBackend
                                  : ChunkSource::kCacheComputed)) {
      ++restored;
    }
  }
  std::fclose(f);
  if (!ok) {
    std::fprintf(stderr, "snapshot: %s is truncated or corrupt\n",
                 path.c_str());
    return -1;
  }
  return restored;
}

}  // namespace aac
