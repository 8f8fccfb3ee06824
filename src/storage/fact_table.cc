#include "storage/fact_table.h"

#include <algorithm>
#include <array>
#include <utility>

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
  std::vector<ChunkId> affected;
  for (const Cell& c : cells) {
    affected.push_back(grid_->ChunkOfCell(base_gb_, c.values.data()));
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());
  tuples_.insert(tuples_.end(), cells.begin(), cells.end());
  Rebuild();
  return affected;
}

void FactTable::Rebuild() {
  const int nd = grid_->schema().num_dims();

  // Combine duplicate cells (one tuple per non-empty cell).
  std::sort(tuples_.begin(), tuples_.end(), CellValueLess{nd});
  size_t out = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (out > 0 && !CellValueLess{nd}(tuples_[out - 1], tuples_[i]) &&
        !CellValueLess{nd}(tuples_[i], tuples_[out - 1])) {
      MergeCellAggregates(tuples_[out - 1], tuples_[i]);
    } else {
      tuples_[out++] = tuples_[i];
    }
  }
  tuples_.resize(out);

  // Cluster by base chunk number (stable within a chunk: value order).
  // Chunk numbers are precomputed once and the clustering is done with a
  // counting sort, so building a table of millions of tuples stays linear.
  const int64_t nchunks = grid_->NumChunks(base_gb_);
  std::vector<ChunkId> keys(tuples_.size());
  chunk_offsets_.assign(static_cast<size_t>(nchunks) + 1, 0);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    keys[i] = grid_->ChunkOfCell(base_gb_, tuples_[i].values.data());
    ++chunk_offsets_[static_cast<size_t>(keys[i]) + 1];
  }
  for (size_t i = 1; i < chunk_offsets_.size(); ++i) {
    chunk_offsets_[i] += chunk_offsets_[i - 1];
  }
  std::vector<Cell> clustered(tuples_.size());
  std::vector<int64_t> next(chunk_offsets_.begin(), chunk_offsets_.end() - 1);
  for (size_t i = 0; i < tuples_.size(); ++i) {
    clustered[static_cast<size_t>(next[static_cast<size_t>(keys[i])]++)] =
        tuples_[i];
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
