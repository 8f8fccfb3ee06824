#include "storage/measured_size_model.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <thread>

#include "util/check.h"

namespace aac {

namespace {

// A chunk whose cells span more than this many bitmap bits (2 MB) sorts one
// offset per tuple instead; no chunk of APB-1 or the web cube comes close.
constexpr int64_t kMaxBitmapCells = int64_t{1} << 24;

}  // namespace

MeasuredChunkSizeModel::MeasuredChunkSizeModel(const ChunkGrid* grid,
                                               const FactTable* table,
                                               int64_t bytes_per_tuple)
    : ChunkSizeModel(grid, table->num_tuples(), bytes_per_tuple) {
  AAC_CHECK_EQ(&table->grid(), grid);
  const Lattice& lattice = grid->lattice();
  const Schema& schema = grid->schema();
  const LevelVector& base_lv = schema.base_level();
  const int nd = schema.num_dims();
  const GroupById base = table->base_gb();
  const GroupById num_gbs = lattice.num_groupbys();

  offsets_.assign(static_cast<size_t>(num_gbs) + 1, 0);
  for (GroupById gb = 0; gb < num_gbs; ++gb) {
    offsets_[static_cast<size_t>(gb) + 1] =
        offsets_[static_cast<size_t>(gb)] + grid->NumChunks(gb);
  }
  chunk_tuples_.assign(static_cast<size_t>(offsets_.back()), 0);
  gb_tuples_.assign(static_cast<size_t>(num_gbs), 0);

  // Workers claim group-bys from `next`, write only those group-bys' counts
  // and own their buffers, so they share no lock.
  std::atomic<GroupById> next{0};
  const auto worker = [&] {
    // offset[d][v]: the offset of base value v's ancestor at the group-by's
    // level inside that ancestor's chunk, times the dimension's stride.
    std::array<std::vector<int64_t>, kMaxDims> offset;
    std::array<int64_t, kMaxDims> stride{};
    std::vector<uint64_t> bitmap;  // all zero between chunks
    std::vector<size_t> touched;   // bitmap words the current chunk set
    std::vector<int64_t> keys;     // cell offsets of a chunk too large for it
    for (GroupById gb = next.fetch_add(1, std::memory_order_relaxed);
         gb < num_gbs; gb = next.fetch_add(1, std::memory_order_relaxed)) {
      const LevelVector& lv = lattice.LevelOf(gb);
      int32_t* counts =
          chunk_tuples_.data() + offsets_[static_cast<size_t>(gb)];
      int64_t& distinct = gb_tuples_[static_cast<size_t>(gb)];
      if (gb == base) {  // the table holds one tuple per cell
        for (ChunkId c = 0; c < grid->NumChunks(gb); ++c) {
          counts[c] = static_cast<int32_t>(table->ChunkTupleCount(c));
        }
        distinct = table->num_tuples();
        continue;
      }
      // A dimension's stride is the product of the widest chunks of the
      // later dimensions' levels, so any chunk's cells get distinct offsets.
      int64_t widest_cells = 1;
      for (int d = nd - 1; d >= 0; --d) {
        const Dimension& dim = schema.dimension(d);
        const DimensionChunkLayout& layout = grid->layout(d);
        int32_t widest = 0;
        for (int32_t k = 0; k < layout.num_chunks(lv[d]); ++k) {
          widest = std::max(widest, layout.ChunkWidth(lv[d], k));
        }
        auto& dim_offset = offset[static_cast<size_t>(d)];
        dim_offset.resize(static_cast<size_t>(dim.cardinality(base_lv[d])));
        for (size_t v = 0; v < dim_offset.size(); ++v) {
          const int32_t value =
              dim.AncestorValue(base_lv[d], static_cast<int32_t>(v), lv[d]);
          const int32_t chunk = layout.ChunkOfValue(lv[d], value);
          dim_offset[v] =
              (value - layout.ValueRange(lv[d], chunk).first) * widest_cells;
        }
        stride[static_cast<size_t>(d)] = widest_cells;
        widest_cells *= widest;
      }

      for (ChunkId c = 0; c < grid->NumChunks(gb); ++c) {
        // Calls `fn` with the cell offset of each tuple in c's base chunks.
        const auto for_each_cell = [&](auto&& fn) {
          grid->ForEachParentChunk(gb, c, base, [&](ChunkId parent) {
            for (const Cell& t : table->ChunkSlice(parent)) {
              int64_t cell = 0;
              for (int d = 0; d < nd; ++d) {
                const auto k = static_cast<size_t>(d);
                cell += offset[k][static_cast<size_t>(t.values[k])];
              }
              fn(cell);
            }
            return true;
          });
        };
        const ChunkCoords coords = grid->CoordsOf(gb, c);
        int64_t span = 1;  // the chunk's last cell's offset, plus one
        for (int d = 0; d < nd; ++d) {
          const auto k = static_cast<size_t>(d);
          const int32_t width = grid->layout(d).ChunkWidth(lv[d], coords[k]);
          span += (width - 1) * stride[k];
        }
        int32_t n = 0;
        if (span <= kMaxBitmapCells) {
          bitmap.resize(
              std::max(bitmap.size(), static_cast<size_t>((span + 63) / 64)));
          for_each_cell([&](int64_t cell) {
            uint64_t& word = bitmap[static_cast<size_t>(cell >> 6)];
            const uint64_t bit = uint64_t{1} << (cell & 63);
            if ((word & bit) != 0) return;
            if (word == 0) touched.push_back(static_cast<size_t>(cell >> 6));
            word |= bit;
            ++n;
          });
          for (const size_t w : touched) bitmap[w] = 0;
          touched.clear();
        } else {
          keys.clear();
          for_each_cell([&](int64_t cell) { keys.push_back(cell); });
          std::sort(keys.begin(), keys.end());
          n = static_cast<int32_t>(std::unique(keys.begin(), keys.end()) -
                                   keys.begin());
        }
        counts[c] = n;
        distinct += n;
      }
    }
  };
  const auto num_workers = std::clamp<int64_t>(
      std::thread::hardware_concurrency(), 1, num_gbs);
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(num_workers) - 1);
  for (int64_t i = 1; i < num_workers; ++i) pool.emplace_back(worker);
  worker();  // the calling thread is one of the workers
  for (std::thread& t : pool) t.join();
}

double MeasuredChunkSizeModel::ExpectedChunkTuples(GroupById gb,
                                                   ChunkId chunk) const {
  AAC_DCHECK(chunk >= 0 && chunk < grid()->NumChunks(gb));
  return static_cast<double>(
      chunk_tuples_[static_cast<size_t>(offsets_[static_cast<size_t>(gb)] +
                                        chunk)]);
}

double MeasuredChunkSizeModel::ExpectedGroupByTuples(GroupById gb) const {
  return static_cast<double>(gb_tuples_[static_cast<size_t>(gb)]);
}

}  // namespace aac
