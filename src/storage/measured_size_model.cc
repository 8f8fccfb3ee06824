#include "storage/measured_size_model.h"

#include <algorithm>
#include <array>
#include <span>

#include "util/check.h"

namespace aac {

namespace {

// A group-by whose cell space has at most this many cells counts distinct
// cells by test-and-set in a bitmap of the whole space (at most 2 MB);
// larger spaces are sparse at any fact-table size that fits in memory, so
// they sort one (cell, chunk) key per tuple instead.
constexpr int64_t kMaxBitmapCells = int64_t{1} << 24;

// One base value's contribution to a tuple's cell id and chunk id at some
// group-by: its ancestor at the group-by's level and that ancestor's chunk,
// each premultiplied by the dimension's mixed-radix stride.
struct ValueTerms {
  int64_t cell = 0;
  int64_t chunk = 0;
};

}  // namespace

MeasuredChunkSizeModel::MeasuredChunkSizeModel(const ChunkGrid* grid,
                                               const FactTable* table,
                                               int64_t bytes_per_tuple)
    : ChunkSizeModel(grid, table->num_tuples(), bytes_per_tuple) {
  const Lattice& lattice = grid->lattice();
  const Schema& schema = grid->schema();
  const LevelVector& base_lv = schema.base_level();
  const int nd = schema.num_dims();
  const std::span<const Cell> tuples = table->tuples();

  offsets_.assign(static_cast<size_t>(lattice.num_groupbys()) + 1, 0);
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    offsets_[static_cast<size_t>(gb) + 1] =
        offsets_[static_cast<size_t>(gb)] + grid->NumChunks(gb);
  }
  chunk_tuples_.assign(static_cast<size_t>(offsets_.back()), 0);
  gb_tuples_.assign(static_cast<size_t>(lattice.num_groupbys()), 0);

  // Per group-by: map every fact tuple to (cell id, chunk id) at that level
  // through per-dimension tables over the base values, and count each
  // distinct cell once in its chunk.
  std::array<std::vector<ValueTerms>, kMaxDims> terms;
  // Both buffers are allocated once, at the largest size any group-by needs
  // (no group-by has more cells than the base), so that regrowing them does
  // not leave freed blocks resident in the heap after construction.
  std::vector<uint64_t> bitmap;
  bitmap.reserve(static_cast<size_t>(
      (std::min(kMaxBitmapCells, schema.NumCells(base_lv)) + 63) / 64));
  std::vector<ValueTerms> keys;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    const LevelVector& lv = lattice.LevelOf(gb);
    int64_t cells = 1;
    int64_t chunks = 1;
    for (int d = nd - 1; d >= 0; --d) {
      const Dimension& dim = schema.dimension(d);
      const DimensionChunkLayout& layout = grid->layout(d);
      auto& dim_terms = terms[static_cast<size_t>(d)];
      dim_terms.resize(static_cast<size_t>(dim.cardinality(base_lv[d])));
      for (size_t v = 0; v < dim_terms.size(); ++v) {
        const int32_t value =
            dim.AncestorValue(base_lv[d], static_cast<int32_t>(v), lv[d]);
        dim_terms[v] = {value * cells,
                        layout.ChunkOfValue(lv[d], value) * chunks};
      }
      cells *= dim.cardinality(lv[d]);
      chunks *= layout.num_chunks(lv[d]);
    }
    AAC_DCHECK_EQ(chunks, grid->NumChunks(gb));

    // The tuple's (cell id, chunk id) at this group-by.
    const auto ids_of = [&terms, nd](const Cell& t) {
      ValueTerms ids;
      for (int d = 0; d < nd; ++d) {
        const ValueTerms& vt =
            terms[static_cast<size_t>(d)]
                 [static_cast<size_t>(t.values[static_cast<size_t>(d)])];
        ids.cell += vt.cell;
        ids.chunk += vt.chunk;
      }
      return ids;
    };
    int32_t* counts =
        chunk_tuples_.data() + offsets_[static_cast<size_t>(gb)];
    int64_t distinct = 0;
    if (cells <= kMaxBitmapCells) {
      bitmap.assign(static_cast<size_t>((cells + 63) / 64), 0);
      for (const Cell& t : tuples) {
        const ValueTerms ids = ids_of(t);
        uint64_t& word = bitmap[static_cast<size_t>(ids.cell >> 6)];
        const uint64_t bit = uint64_t{1} << (ids.cell & 63);
        if ((word & bit) != 0) continue;
        word |= bit;
        ++counts[ids.chunk];
        ++distinct;
      }
    } else {
      keys.clear();
      keys.reserve(tuples.size());
      for (const Cell& t : tuples) keys.push_back(ids_of(t));
      // Equal cells share a chunk, so ordering by cell alone groups them.
      std::sort(keys.begin(), keys.end(),
                [](const ValueTerms& a, const ValueTerms& b) {
                  return a.cell < b.cell;
                });
      for (size_t i = 0; i < keys.size(); ++i) {
        if (i > 0 && keys[i].cell == keys[i - 1].cell) continue;
        ++counts[keys[i].chunk];
        ++distinct;
      }
    }
    gb_tuples_[static_cast<size_t>(gb)] = distinct;
  }
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
