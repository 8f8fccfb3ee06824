#include "storage/chunk_data.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "util/check.h"

namespace aac {

void CanonicalizeChunkData(int num_dims, ChunkData* data) {
  std::sort(data->cells.begin(), data->cells.end(), CellValueLess{num_dims});
  // Merge duplicate coordinates. Sorting alone left duplicates alive — and
  // in unspecified relative order, since std::sort is unstable over
  // equal keys — so two equal chunks could compare unequal and a fold over
  // "canonical" data could double-count a coordinate. Merging with the
  // cell-wise rollup step is deterministic (sum/count are
  // order-independent, min/max commute) and restores the invariant that a
  // canonical chunk has one cell per coordinate.
  if (data->cells.empty()) return;
  auto out = data->cells.begin();
  for (auto it = std::next(out); it != data->cells.end(); ++it) {
    const bool same_coords = !CellValueLess{num_dims}(*out, *it) &&
                             !CellValueLess{num_dims}(*it, *out);
    if (same_coords) {
      MergeCellAggregates(*out, *it);
    } else {
      ++out;
      if (out != it) *out = *it;
    }
  }
  data->cells.erase(std::next(out), data->cells.end());
}

std::vector<ChunkId> ClusterByChunk(const ChunkGrid& grid, GroupById gb,
                                    std::vector<Cell>* cells) {
  const CellValueLess less{grid.schema().num_dims()};
  std::vector<std::pair<ChunkId, Cell>> placed;
  placed.reserve(cells->size());
  for (const Cell& c : *cells) {
    placed.emplace_back(grid.ChunkOfCell(gb, c.values.data()), c);
  }
  std::stable_sort(placed.begin(), placed.end(),
                   [less](const auto& a, const auto& b) {
                     return a.first != b.first ? a.first < b.first
                                               : less(a.second, b.second);
                   });
  std::vector<ChunkId> chunks;
  chunks.reserve(placed.size());
  cells->clear();
  for (const auto& [chunk, cell] : placed) {
    if (!chunks.empty() && chunks.back() == chunk &&
        !less(cells->back(), cell)) {
      MergeCellAggregates(cells->back(), cell);
    } else {
      chunks.push_back(chunk);
      cells->push_back(cell);
    }
  }
  return chunks;
}

void InsertCellsAt(std::vector<Cell>* cells, std::span<const size_t> at,
                   std::span<const Cell> fresh) {
  AAC_CHECK_EQ(at.size(), fresh.size());
  size_t read = cells->size();
  size_t write = read + fresh.size();
  cells->resize(write);
  const auto it = [cells](size_t i) {
    return cells->begin() + static_cast<std::ptrdiff_t>(i);
  };
  for (size_t k = fresh.size(); k-- > 0;) {
    AAC_CHECK_LE(at[k], read);
    std::move_backward(it(at[k]), it(read), it(write));
    write -= read - at[k];
    read = at[k];
    (*cells)[--write] = fresh[k];
  }
}

size_t MergeCellRun(int num_dims, std::vector<Cell>* cells,
                    std::span<const Cell> run, bool sorted) {
  const CellValueLess less{num_dims};
  AAC_DCHECK(std::adjacent_find(run.begin(), run.end(),
                                [less](const Cell& a, const Cell& b) {
                                  return !less(a, b);
                                }) == run.end());
  AAC_DCHECK(!sorted || std::is_sorted(cells->begin(), cells->end(), less));
  // The check reads every cell of a chunk the merge otherwise touches in
  // a few places, so a caller that knows the order skips it.
  if (!sorted && !std::is_sorted(cells->begin(), cells->end(), less)) {
    std::sort(cells->begin(), cells->end(), less);
  }
  // Each run cell either merges into its equal cell or goes in front of the
  // cell the search stopped at. A merge moves no cell, so the positions
  // hold until the one insert pass; the run ascends, so each search starts
  // where the last one stopped.
  std::vector<size_t> at;
  std::vector<Cell> fresh;
  auto from = cells->begin();
  for (const Cell& cell : run) {
    from = std::lower_bound(from, cells->end(), cell, less);
    if (from != cells->end() && !less(cell, *from)) {
      MergeCellAggregates(*from, cell);
    } else {
      at.push_back(static_cast<size_t>(from - cells->begin()));
      fresh.push_back(cell);
    }
  }
  InsertCellsAt(cells, at, fresh);
  return fresh.size();
}

bool ChunkDataEquals(int num_dims, ChunkData* a, ChunkData* b, double epsilon) {
  // Canonicalize before the size check: canonicalization merges duplicate
  // coordinates, so the raw cell counts may differ while the chunks are
  // still equal.
  CanonicalizeChunkData(num_dims, a);
  CanonicalizeChunkData(num_dims, b);
  if (a->cells.size() != b->cells.size()) return false;
  for (size_t i = 0; i < a->cells.size(); ++i) {
    for (int d = 0; d < num_dims; ++d) {
      if (a->cells[i].values[static_cast<size_t>(d)] !=
          b->cells[i].values[static_cast<size_t>(d)]) {
        return false;
      }
    }
    if (std::abs(a->cells[i].measure - b->cells[i].measure) > epsilon) {
      return false;
    }
    // Compare the rest of the aggregate state when both sides carry it
    // (hand-built sum-only cells leave count at 0).
    if (a->cells[i].count > 0 && b->cells[i].count > 0) {
      if (a->cells[i].count != b->cells[i].count ||
          std::abs(a->cells[i].min - b->cells[i].min) > epsilon ||
          std::abs(a->cells[i].max - b->cells[i].max) > epsilon) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace aac
