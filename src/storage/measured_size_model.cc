#include "storage/measured_size_model.h"

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <span>
#include <utility>

#include "util/check.h"
#include "util/parallel_for.h"

namespace aac {

namespace {

// A chunk whose cells span more than this many bitmap bits (2 MB) sorts one
// offset per visited cell instead; no chunk of APB-1 or the web cube comes
// close. Kept cells are collected through the bitmap, so a group-by with
// such a chunk is never kept.
constexpr int64_t kMaxBitmapCells = int64_t{1} << 24;

// Source cells one task reads, roughly: small enough that a rank's tasks
// spread over every core, large enough that claiming a task costs nothing.
constexpr int64_t kTaskVisits = int64_t{1} << 14;

// The cells of one source chunk, read as value ids at the source's level:
// the fact table's tuples in place, or a kept group-by's rows of ND ids.
struct BaseRows {
  const Cell* cells;
  size_t size;
  int32_t Value(size_t i, int d) const {
    return cells[i].values[static_cast<size_t>(d)];
  }
};

template <int ND>
struct KeptRows {
  const int32_t* values;
  size_t size;
  int32_t Value(size_t i, int d) const {
    return values[i * ND + static_cast<size_t>(d)];
  }
};

// Counts the lattice rank by rank into the model's arrays; see the class
// comment of MeasuredChunkSizeModel.
class LatticeCounter {
 public:
  LatticeCounter(const ChunkGrid& grid, const FactTable& table,
                 std::span<int32_t> counts, std::span<int64_t> totals);

  MeasuredChunkSizeModel::CountStats Run();

 private:
  struct Task {
    GroupById gb;
    ChunkId begin;
    ChunkId end;
  };

  // One worker's scratch: the tables of the group-by it last worked on,
  // and a one-chunk bitmap that is all zero between chunks.
  struct Worker {
    GroupById gb = -1;  // the group-by the tables below are built for
    bool fits_bitmap = false;  // every chunk of gb fits the bitmap
    // offset[d][v]: the offset of source value v's ancestor at the
    // group-by's level inside that ancestor's chunk, times stride[d].
    std::array<std::vector<int64_t>, kMaxDims> offset;
    std::array<int64_t, kMaxDims> stride{};
    // ancestor[d][v]: source value v's ancestor; null where the levels are
    // equal.
    std::array<const int32_t*, kMaxDims> ancestor{};
    std::vector<uint64_t> bitmap;   // covers every chunk of gb if it fits
    std::vector<uint32_t> touched;  // bitmap words the current chunk set
    std::vector<int64_t> keys;      // cell offsets of a chunk too large
  };

  // The cells of a kept group-by: chunk c's rows of value ids at its own
  // level are rows [begin[c], begin[c + 1]) of `values`.
  struct Kept {
    int32_t* values = nullptr;
    std::vector<int64_t> begin;
  };

  // Between phases, on the calling thread: sums the counted rank's totals,
  // keeps from it, and sets up the next phase's tasks.
  void Advance();
  void StartRank(int rank);
  bool KeepFromRank();
  void AddTasks(GroupById gb);

  void RunTask(Worker& w, const Task& task);
  template <int ND>
  void RunTaskDims(Worker& w, const Task& task);
  // Counts a chunk through the bitmap, which must cover it. Collecting a
  // kept group-by's chunk also writes its distinct cells, as value ids at
  // the group-by's level, to `out`.
  template <int ND, bool kCollect, typename Source>
  int32_t CountChunk(Worker& w, GroupById gb, ChunkId chunk,
                     const Source& source, int32_t* out);
  // Counts a chunk of a group-by whose widest chunk the bitmap cannot
  // cover: through the bitmap if this chunk fits, else by sorting offsets.
  template <int ND, typename Source>
  int32_t CountChunkBySpan(Worker& w, GroupById gb, ChunkId chunk,
                           const Source& source);
  void Prepare(Worker& w, GroupById gb) const;
  // Whether every chunk of the group-by fits the bitmap.
  bool FitsBitmap(GroupById gb) const;
  // Grows the worker's bitmap and word list to cover `span` cells.
  static void GrowBitmap(Worker& w, int64_t span);

  const ChunkGrid& grid_;
  const FactTable& table_;
  const Lattice& lattice_;
  const int nd_;
  const GroupById base_;
  std::span<int32_t> counts_;  // per chunk, at ChunkGrid::FlatIndex
  std::span<int64_t> totals_;

  // Per dimension and level: each value's offset inside its chunk, and the
  // widest chunk's width.
  std::array<std::vector<std::vector<int32_t>>, kMaxDims> local_;
  std::array<std::vector<int32_t>, kMaxDims> widest_;
  std::vector<std::vector<GroupById>> ranks_;  // by level sum, topo order

  // Written only between phases, on the calling thread, except the kept
  // rows, which a collect phase writes (each chunk's by one worker); read
  // by the workers while a rank is counted.
  std::vector<GroupById> source_;   // per group-by, once its rank starts
  std::vector<GroupById> kept_order_;  // the base first, then as kept
  std::vector<Kept> kept_;             // per group-by
  std::unique_ptr<int32_t[]> kept_values_;  // every kept row, nd_ ids each
  std::vector<Task> tasks_;
  int rank_ = 0;
  bool counting_ = false;  // counting rank_; else collecting its kept cells
  bool done_ = false;
  MeasuredChunkSizeModel::CountStats stats_;
};

LatticeCounter::LatticeCounter(const ChunkGrid& grid, const FactTable& table,
                               std::span<int32_t> counts,
                               std::span<int64_t> totals)
    : grid_(grid),
      table_(table),
      lattice_(grid.lattice()),
      nd_(grid.schema().num_dims()),
      base_(table.base_gb()),
      counts_(counts),
      totals_(totals) {
  const Schema& schema = grid.schema();
  for (int d = 0; d < nd_; ++d) {
    const Dimension& dim = schema.dimension(d);
    const DimensionChunkLayout& layout = grid.layout(d);
    auto& local = local_[static_cast<size_t>(d)];
    auto& widest = widest_[static_cast<size_t>(d)];
    local.resize(static_cast<size_t>(dim.num_levels()));
    widest.assign(static_cast<size_t>(dim.num_levels()), 0);
    for (int l = 0; l < dim.num_levels(); ++l) {
      auto& values = local[static_cast<size_t>(l)];
      values.resize(static_cast<size_t>(dim.cardinality(l)));
      for (int32_t k = 0; k < layout.num_chunks(l); ++k) {
        const auto [first, end] = layout.ValueRange(l, k);
        for (int32_t v = first; v < end; ++v) {
          values[static_cast<size_t>(v)] = v - first;
        }
        widest[static_cast<size_t>(l)] =
            std::max(widest[static_cast<size_t>(l)], end - first);
      }
    }
  }

  ranks_.resize(static_cast<size_t>(lattice_.LevelSum(base_)) + 1);
  for (GroupById gb : lattice_.TopoDetailedFirst()) {
    ranks_[static_cast<size_t>(lattice_.LevelSum(gb))].push_back(gb);
  }
  source_.assign(static_cast<size_t>(lattice_.num_groupbys()), base_);
  kept_.resize(static_cast<size_t>(lattice_.num_groupbys()));
}

MeasuredChunkSizeModel::CountStats LatticeCounter::Run() {
  // The table holds one tuple per cell.
  int32_t* base_counts = counts_.data() + grid_.FlatIndex(base_, 0);
  for (ChunkId c = 0; c < grid_.NumChunks(base_); ++c) {
    base_counts[c] = static_cast<int32_t>(table_.ChunkTupleCount(c));
  }
  totals_[static_cast<size_t>(base_)] = table_.num_tuples();
  kept_order_.push_back(base_);
  // Kept cells total at most the table's tuples, so one buffer holds them
  // all; only the rows written are ever touched.
  kept_values_ = std::make_unique_for_overwrite<int32_t[]>(
      static_cast<size_t>(table_.num_tuples() * nd_));

  rank_ = static_cast<int>(ranks_.size()) - 1;
  if (rank_ == 0) return stats_;  // the base is the only group-by
  StartRank(rank_ - 1);

  // Each phase starts its workers and joins them (ParallelFor).
  std::vector<Worker> workers(HardwareWorkers());
  while (!done_) {
    ParallelFor(workers.size(), tasks_.size(), [&](size_t w, size_t task) {
      RunTask(workers[w], tasks_[task]);
    });
    Advance();
  }
  return stats_;
}

void LatticeCounter::Advance() {
  if (counting_) {
    // Workers wrote only chunk counts; the totals are summed here.
    for (GroupById gb : ranks_[static_cast<size_t>(rank_)]) {
      const int32_t* counts = counts_.data() + grid_.FlatIndex(gb, 0);
      int64_t total = 0;
      for (ChunkId c = 0; c < grid_.NumChunks(gb); ++c) total += counts[c];
      totals_[static_cast<size_t>(gb)] = total;
    }
    if (rank_ > 0 && KeepFromRank()) return;  // collect the kept cells next
  }
  if (rank_ == 0) {
    done_ = true;
    return;
  }
  StartRank(rank_ - 1);
}

void LatticeCounter::StartRank(int rank) {
  rank_ = rank;
  counting_ = true;
  std::vector<GroupById> order = ranks_[static_cast<size_t>(rank)];
  for (GroupById gb : order) {
    // The kept ancestor with the fewest cells; on a tie, the one kept first.
    GroupById best = base_;
    for (GroupById k : kept_order_) {
      if (totals_[static_cast<size_t>(k)] <
              totals_[static_cast<size_t>(best)] &&
          lattice_.IsAncestor(gb, k)) {
        best = k;
      }
    }
    source_[static_cast<size_t>(gb)] = best;
  }
  tasks_.clear();
  const auto source_cells = [this](GroupById gb) {
    return totals_[static_cast<size_t>(source_[static_cast<size_t>(gb)])];
  };
  std::stable_sort(order.begin(), order.end(),
                   [&](GroupById a, GroupById b) {
                     return source_cells(a) > source_cells(b);
                   });
  for (GroupById gb : order) AddTasks(gb);
}

bool LatticeCounter::KeepFromRank() {
  std::vector<GroupById> collect;
  for (GroupById gb : ranks_[static_cast<size_t>(rank_)]) {
    const int64_t cells = totals_[static_cast<size_t>(gb)];
    const GroupById source = source_[static_cast<size_t>(gb)];
    if (2 * cells > totals_[static_cast<size_t>(source)]) continue;
    if (stats_.kept_cells + cells > table_.num_tuples()) continue;
    if (!FitsBitmap(gb)) continue;

    Kept& kept = kept_[static_cast<size_t>(gb)];
    kept.values = kept_values_.get() + stats_.kept_cells * nd_;
    const int32_t* counts = counts_.data() + grid_.FlatIndex(gb, 0);
    kept.begin.assign(static_cast<size_t>(grid_.NumChunks(gb)) + 1, 0);
    for (ChunkId c = 0; c < grid_.NumChunks(gb); ++c) {
      kept.begin[static_cast<size_t>(c) + 1] =
          kept.begin[static_cast<size_t>(c)] + counts[c];
    }
    kept_order_.push_back(gb);
    collect.push_back(gb);
    ++stats_.kept_groupbys;
    stats_.kept_cells += cells;
  }
  if (collect.empty()) return false;
  counting_ = false;
  tasks_.clear();
  for (GroupById gb : collect) AddTasks(gb);
  return true;
}

void LatticeCounter::AddTasks(GroupById gb) {
  const int64_t visits =
      totals_[static_cast<size_t>(source_[static_cast<size_t>(gb)])];
  stats_.visits += visits;
  const int64_t chunks = grid_.NumChunks(gb);
  const int64_t blocks = std::clamp<int64_t>(visits / kTaskVisits, 1, chunks);
  for (int64_t b = 0; b < blocks; ++b) {
    tasks_.push_back({gb, chunks * b / blocks, chunks * (b + 1) / blocks});
  }
}

void LatticeCounter::RunTask(Worker& w, const Task& task) {
  Prepare(w, task.gb);
  switch (nd_) {
    case 1: RunTaskDims<1>(w, task); return;
    case 2: RunTaskDims<2>(w, task); return;
    case 3: RunTaskDims<3>(w, task); return;
    case 4: RunTaskDims<4>(w, task); return;
    case 5: RunTaskDims<5>(w, task); return;
    case 6: RunTaskDims<6>(w, task); return;
    case 7: RunTaskDims<7>(w, task); return;
    case 8: RunTaskDims<8>(w, task); return;
    default: AAC_CHECK(nd_ >= 1 && nd_ <= kMaxDims);
  }
}

template <int ND>
void LatticeCounter::RunTaskDims(Worker& w, const Task& task) {
  const auto run = [&](const auto& source) {
    int32_t* counts = counts_.data() + grid_.FlatIndex(task.gb, 0);
    const Kept& kept = kept_[static_cast<size_t>(task.gb)];
    for (ChunkId c = task.begin; c < task.end; ++c) {
      if (!counting_) {  // the chunk's rows are its count, already known
        int32_t* rows = kept.values + kept.begin[static_cast<size_t>(c)] * ND;
        const int32_t n = CountChunk<ND, true>(w, task.gb, c, source, rows);
        AAC_CHECK_EQ(n, counts[c]);
      } else if (w.fits_bitmap) {
        counts[c] = CountChunk<ND, false>(w, task.gb, c, source, nullptr);
      } else {
        counts[c] = CountChunkBySpan<ND>(w, task.gb, c, source);
      }
    }
  };
  const GroupById source = source_[static_cast<size_t>(task.gb)];
  if (source == base_) {
    run([this](ChunkId pc) {
      const std::span<const Cell> slice = table_.ChunkSlice(pc);
      return BaseRows{slice.data(), slice.size()};
    });
  } else {
    const Kept& kept = kept_[static_cast<size_t>(source)];
    run([&kept](ChunkId pc) {
      const int64_t first = kept.begin[static_cast<size_t>(pc)];
      return KeptRows<ND>{kept.values + first * ND,
                          static_cast<size_t>(
                              kept.begin[static_cast<size_t>(pc) + 1] - first)};
    });
  }
}

template <int ND, bool kCollect, typename Source>
int32_t LatticeCounter::CountChunk(Worker& w, GroupById gb, ChunkId chunk,
                                   const Source& source, int32_t* out) {
  const int64_t* offset[ND];
  const int32_t* ancestor[ND];
  for (int d = 0; d < ND; ++d) {
    offset[d] = w.offset[static_cast<size_t>(d)].data();
    ancestor[d] = w.ancestor[static_cast<size_t>(d)];
  }
  uint64_t* bitmap = w.bitmap.data();
  uint32_t* touched = w.touched.data();
  size_t num_touched = 0;
  grid_.ForEachParentChunk(gb, chunk, source_[static_cast<size_t>(gb)],
                           [&](ChunkId pc) {
    const auto rows = source(pc);
    // Branch-free unless collecting: a word is listed when its first bit
    // is set, and the chunk's count is the bits set in the listed words.
    for (size_t i = 0; i < rows.size; ++i) {
      int64_t cell = 0;
      for (int d = 0; d < ND; ++d) cell += offset[d][rows.Value(i, d)];
      const auto word = static_cast<uint32_t>(cell >> 6);
      const uint64_t bit = uint64_t{1} << (cell & 63);
      const uint64_t old = bitmap[word];
      if (kCollect && (old & bit) == 0) {
        for (int d = 0; d < ND; ++d) {
          const int32_t v = rows.Value(i, d);
          out[d] = ancestor[d] == nullptr ? v : ancestor[d][v];
        }
        out += ND;
      }
      touched[num_touched] = word;
      num_touched += old == 0 ? 1 : 0;
      bitmap[word] = old | bit;
    }
    return true;
  });
  int32_t n = 0;
  for (size_t k = 0; k < num_touched; ++k) {
    n += std::popcount(bitmap[touched[k]]);
    bitmap[touched[k]] = 0;
  }
  return n;
}

template <int ND, typename Source>
int32_t LatticeCounter::CountChunkBySpan(Worker& w, GroupById gb,
                                         ChunkId chunk, const Source& source) {
  const LevelVector& lv = lattice_.LevelOf(gb);
  const ChunkCoords coords = grid_.CoordsOf(gb, chunk);
  int64_t span = 1;  // the chunk's last cell's offset, plus one
  for (int d = 0; d < ND; ++d) {
    const auto k = static_cast<size_t>(d);
    span += (grid_.layout(d).ChunkWidth(lv[d], coords[k]) - 1) * w.stride[k];
  }
  if (span <= kMaxBitmapCells) {
    GrowBitmap(w, span);
    return CountChunk<ND, false>(w, gb, chunk, source, nullptr);
  }
  w.keys.clear();
  grid_.ForEachParentChunk(gb, chunk, source_[static_cast<size_t>(gb)],
                           [&](ChunkId pc) {
    const auto rows = source(pc);
    for (size_t i = 0; i < rows.size; ++i) {
      int64_t cell = 0;
      for (int d = 0; d < ND; ++d) {
        cell += w.offset[static_cast<size_t>(d)]
                        [static_cast<size_t>(rows.Value(i, d))];
      }
      w.keys.push_back(cell);
    }
    return true;
  });
  std::sort(w.keys.begin(), w.keys.end());
  return static_cast<int32_t>(
      std::unique(w.keys.begin(), w.keys.end()) - w.keys.begin());
}

void LatticeCounter::Prepare(Worker& w, GroupById gb) const {
  if (w.gb == gb) return;
  w.gb = gb;
  const Schema& schema = grid_.schema();
  const LevelVector& lv = lattice_.LevelOf(gb);
  const LevelVector& src_lv =
      lattice_.LevelOf(source_[static_cast<size_t>(gb)]);
  // A dimension's stride is the product of the widest chunks of the later
  // dimensions' levels, so any chunk's cells get distinct offsets.
  int64_t stride = 1;
  for (int d = nd_ - 1; d >= 0; --d) {
    const auto k = static_cast<size_t>(d);
    const Dimension& dim = schema.dimension(d);
    const std::vector<int32_t>& local = local_[k][static_cast<size_t>(lv[d])];
    auto& table = w.offset[k];
    table.resize(static_cast<size_t>(dim.cardinality(src_lv[d])));
    if (src_lv[d] == lv[d]) {  // AncestorTable needs a strictly coarser level
      w.ancestor[k] = nullptr;
      for (size_t v = 0; v < table.size(); ++v) table[v] = local[v] * stride;
    } else {
      const std::span<const int32_t> up = dim.AncestorTable(src_lv[d], lv[d]);
      w.ancestor[k] = up.data();
      for (size_t v = 0; v < table.size(); ++v) {
        table[v] = local[static_cast<size_t>(up[v])] * stride;
      }
    }
    w.stride[k] = stride;
    stride *= widest_[k][static_cast<size_t>(lv[d])];
  }
  w.fits_bitmap = FitsBitmap(gb);
  if (w.fits_bitmap) GrowBitmap(w, stride);
}

bool LatticeCounter::FitsBitmap(GroupById gb) const {
  // The widest chunks of every dimension meet in one chunk, whose cells
  // span the product of their widths.
  const LevelVector& lv = lattice_.LevelOf(gb);
  int64_t span = 1;
  for (int d = 0; d < nd_ && span <= kMaxBitmapCells; ++d) {
    span *= widest_[static_cast<size_t>(d)][static_cast<size_t>(lv[d])];
  }
  return span <= kMaxBitmapCells;
}

void LatticeCounter::GrowBitmap(Worker& w, int64_t span) {
  // The counting loop lists a word index before it knows whether the word
  // is new, so the list has room for one more than the chunk's words.
  const auto words = static_cast<size_t>((span + 63) / 64);
  if (w.bitmap.size() < words) w.bitmap.resize(words);
  if (w.touched.size() < words + 1) w.touched.resize(words + 1);
}

}  // namespace

MeasuredChunkSizeModel::MeasuredChunkSizeModel(const ChunkGrid* grid,
                                               const FactTable* table,
                                               int64_t bytes_per_tuple)
    : ChunkSizeModel(grid, table->num_tuples(), bytes_per_tuple) {
  AAC_CHECK_EQ(&table->grid(), grid);
  chunk_tuples_.assign(static_cast<size_t>(grid->TotalChunksAllGroupBys()), 0);
  gb_tuples_.assign(static_cast<size_t>(grid->lattice().num_groupbys()), 0);
  count_stats_ = LatticeCounter(*grid, *table, chunk_tuples_, gb_tuples_).Run();
}

double MeasuredChunkSizeModel::ExpectedChunkTuples(GroupById gb,
                                                   ChunkId chunk) const {
  return static_cast<double>(
      chunk_tuples_[static_cast<size_t>(grid()->FlatIndex(gb, chunk))]);
}

double MeasuredChunkSizeModel::ExpectedGroupByTuples(GroupById gb) const {
  return static_cast<double>(gb_tuples_[static_cast<size_t>(gb)]);
}

}  // namespace aac
