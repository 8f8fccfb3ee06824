#include "storage/fact_table.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>

#include "storage/chunk_data.h"
#include "util/check.h"

namespace aac {

namespace {

// Every value id of every cell must name a base value of its dimension:
// chunk lookups and the measured size model index per-value tables with
// these ids, unchecked in release builds.
void CheckBaseValues(const Schema& schema, std::span<const Cell> cells) {
  const int nd = schema.num_dims();
  std::array<int64_t, kMaxDims> cards{};
  for (int d = 0; d < nd; ++d) {
    cards[static_cast<size_t>(d)] =
        schema.dimension(d).cardinality(schema.base_level()[d]);
  }
  for (const Cell& c : cells) {
    for (int d = 0; d < nd; ++d) {
      const int32_t v = c.values[static_cast<size_t>(d)];
      AAC_CHECK(v >= 0 && v < cards[static_cast<size_t>(d)]);
    }
  }
}

}  // namespace

FactTable::FactTable(const ChunkGrid* grid, std::vector<Cell> cells)
    : grid_(grid), tuples_(std::move(cells)) {
  AAC_CHECK(grid_ != nullptr);
  CheckBaseValues(grid_->schema(), tuples_);
  base_gb_ = grid_->lattice().base_id();
  Rebuild();
}

std::vector<ChunkId> FactTable::ApplyInserts(std::vector<Cell> cells) {
  CheckBaseValues(grid_->schema(), cells);
  const CellValueLess less{grid_->schema().num_dims()};
  // Only the batch is sorted, never the table.
  const std::vector<ChunkId> chunks = ClusterByChunk(*grid_, base_gb_, &cells);
  std::vector<ChunkId> affected = chunks;
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  // A cell already in the table merges into its tuple, found by binary
  // search in its chunk's value-sorted slice. A new cell goes in front of
  // the old tuple the search stopped at; those positions ascend with the
  // batch.
  std::vector<size_t> at;
  std::vector<Cell> fresh;
  std::vector<ChunkId> fresh_chunks;
  for (size_t i = 0; i < cells.size(); ++i) {
    const auto slice_begin =
        tuples_.begin() + chunk_offsets_[static_cast<size_t>(chunks[i])];
    const auto slice_end =
        tuples_.begin() + chunk_offsets_[static_cast<size_t>(chunks[i]) + 1];
    const auto it = std::lower_bound(slice_begin, slice_end, cells[i], less);
    if (it != slice_end && !less(cells[i], *it)) {
      MergeCellAggregates(*it, cells[i]);
    } else {
      at.push_back(static_cast<size_t>(it - tuples_.begin()));
      fresh.push_back(cells[i]);
      fresh_chunks.push_back(chunks[i]);
    }
  }
  if (fresh.empty()) return affected;
  InsertCellsAt(&tuples_, at, fresh);

  // Each chunk's end moves up by the new cells in it and every chunk
  // before it (a prefix sum over the new cells' chunks).
  int64_t shift = 0;
  size_t next = 0;
  for (ChunkId c = fresh_chunks.front(); c < num_chunks(); ++c) {
    for (; next < fresh_chunks.size() && fresh_chunks[next] == c; ++next) {
      ++shift;
    }
    chunk_offsets_[static_cast<size_t>(c) + 1] += shift;
  }
  return affected;
}

void FactTable::Rebuild() {
  const Schema& schema = grid_->schema();
  const int nd = schema.num_dims();
  const size_t n = tuples_.size();
  AAC_CHECK_LE(n, size_t{UINT32_MAX});

  // Per dimension and base value, the value's share of its cell's base
  // chunk number: chunk numbers are row-major, so a cell's is the sum of its
  // values' shares. A cell's key is its row-major number among all base
  // cells, so keys order cells as CellValueLess does and are equal exactly
  // for equal cells.
  std::array<std::vector<uint32_t>, kMaxDims> chunk_part;
  std::array<int64_t, kMaxDims> radix{};
  int64_t cells = 1;
  const int64_t nchunks = grid_->NumChunks(base_gb_);
  AAC_CHECK_LE(nchunks, int64_t{UINT32_MAX});
  for (int d = nd - 1; d >= 0; --d) {
    const auto k = static_cast<size_t>(d);
    const int level = schema.base_level()[d];
    const int64_t card = schema.dimension(d).cardinality(level);
    radix[k] = cells;
    AAC_CHECK(!__builtin_mul_overflow(cells, card, &cells));
    chunk_part[k].resize(static_cast<size_t>(card));
    ChunkCoords coords{};
    for (int32_t v = 0; v < card; ++v) {
      coords[k] = grid_->layout(d).ChunkOfValue(level, v);
      chunk_part[k][static_cast<size_t>(v)] =
          static_cast<uint32_t>(grid_->ChunkIdOf(base_gb_, coords));
    }
  }
  const auto key_of = [&](const Cell& cell) {
    int64_t key = 0;
    for (int d = 0; d < nd; ++d) {
      key += cell.values[static_cast<size_t>(d)] * radix[static_cast<size_t>(d)];
    }
    return key;
  };

  // Cluster the positions by base chunk number with a counting sort, which
  // keeps each chunk's cells in input order.
  std::vector<uint32_t> chunks(n);
  std::vector<int64_t> begin(static_cast<size_t>(nchunks) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    uint32_t chunk = 0;
    for (int d = 0; d < nd; ++d) {
      const auto k = static_cast<size_t>(d);
      chunk += chunk_part[k][static_cast<size_t>(tuples_[i].values[k])];
    }
    chunks[i] = chunk;
    ++begin[static_cast<size_t>(chunk) + 1];
  }
  for (size_t c = 1; c < begin.size(); ++c) begin[c] += begin[c - 1];
  std::vector<uint32_t> order(n);
  std::vector<int64_t> next(begin.begin(), begin.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    order[static_cast<size_t>(next[chunks[i]]++)] = static_cast<uint32_t>(i);
  }

  // Sort each chunk's cells by key, ties in input order (a stable sort by
  // value), and copy them out in that order, merging each duplicate into the
  // cell before it: duplicates merge in input order, and the table holds one
  // tuple per non-empty cell.
  struct Keyed {
    int64_t key;
    uint32_t index;  // into tuples_
  };
  std::vector<Keyed> keyed;  // one chunk's cells
  std::vector<Cell> clustered;
  clustered.reserve(n);
  chunk_offsets_.assign(static_cast<size_t>(nchunks) + 1, 0);
  for (size_t c = 0; c < static_cast<size_t>(nchunks); ++c) {
    keyed.clear();
    for (int64_t k = begin[c]; k < begin[c + 1]; ++k) {
      const uint32_t i = order[static_cast<size_t>(k)];
      keyed.push_back({key_of(tuples_[i]), i});
    }
    std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
      return a.key != b.key ? a.key < b.key : a.index < b.index;
    });
    for (size_t k = 0; k < keyed.size(); ++k) {
      const Cell& cell = tuples_[keyed[k].index];
      if (k > 0 && keyed[k].key == keyed[k - 1].key) {
        MergeCellAggregates(clustered.back(), cell);
      } else {
        clustered.push_back(cell);
      }
    }
    chunk_offsets_[c + 1] = static_cast<int64_t>(clustered.size());
  }
  tuples_ = std::move(clustered);
}

int64_t FactTable::num_chunks() const { return grid_->NumChunks(base_gb_); }

std::span<const Cell> FactTable::ChunkSlice(ChunkId chunk) const {
  AAC_CHECK(chunk >= 0 && chunk < num_chunks());
  const int64_t begin = chunk_offsets_[static_cast<size_t>(chunk)];
  const int64_t end = chunk_offsets_[static_cast<size_t>(chunk) + 1];
  return std::span<const Cell>(tuples_.data() + begin,
                               static_cast<size_t>(end - begin));
}

int64_t FactTable::ChunkTupleCount(ChunkId chunk) const {
  AAC_CHECK(chunk >= 0 && chunk < num_chunks());
  return chunk_offsets_[static_cast<size_t>(chunk) + 1] -
         chunk_offsets_[static_cast<size_t>(chunk)];
}

}  // namespace aac
