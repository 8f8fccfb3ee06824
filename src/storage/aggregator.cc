#include "storage/aggregator.h"

#include <algorithm>

#include "util/check.h"
#include "util/stopwatch.h"

namespace aac {

namespace {

// Above this cell count, fold into the flat sparse table instead of the
// dense array.
constexpr int64_t kDenseCellLimit = int64_t{1} << 22;

// Cells folded between cooperative-cancellation checkpoints. Small enough
// that a deadline-killed multi-chunk fold aborts within microseconds of the
// deadline (at ~5 ns/cell this is ~40 µs of kernel work), large enough that
// the checkpoint (a steady_clock read) is amortized to noise.
constexpr size_t kCancelCheckStride = 8192;

Cell MakeCell(const RollupPlan& plan, int64_t off, const FoldState& s) {
  Cell cell;
  plan.ValuesOf(off, cell.values.data());
  cell.measure = s.sum;
  cell.count = s.count;
  cell.min = s.min;
  cell.max = s.max;
  return cell;
}

}  // namespace

Aggregator::Aggregator(const ChunkGrid* grid, FoldArena* arena)
    : grid_(grid), plan_cache_(&owned_plan_cache_), arena_(arena) {
  AAC_CHECK(grid_ != nullptr);
}

ChunkData Aggregator::Aggregate(GroupById from,
                                const std::vector<const ChunkData*>& sources,
                                GroupById to, ChunkId chunk) {
  std::vector<std::span<const Cell>> spans;
  spans.reserve(sources.size());
  for (const ChunkData* src : sources) {
    AAC_CHECK(src != nullptr);
    AAC_CHECK_EQ(src->gb, from);
    spans.emplace_back(src->cells);
  }
  return AggregateSpans(from, spans, to, chunk);
}

ChunkData Aggregator::AggregateCells(GroupById from, std::span<const Cell> cells,
                                     GroupById to, ChunkId chunk) {
  return AggregateSpans(from, {cells}, to, chunk);
}

ChunkData Aggregator::AggregateSpans(
    GroupById from, const std::vector<std::span<const Cell>>& spans,
    GroupById to, ChunkId chunk) {
  AAC_CHECK(grid_->lattice().IsAncestor(to, from));
  ChunkData out;
  out.gb = to;
  out.chunk = chunk;
  Stopwatch fold_timer;
  std::shared_ptr<const RollupPlan> plan =
      plan_cache_->Get(*grid_, from, to, chunk);
  last_fold_cancelled_ = !FoldSpans(*plan, spans, &out.cells);
  fold_nanos_ += fold_timer.ElapsedNanos();
  return out;
}

bool Aggregator::FoldDense(const RollupPlan& plan,
                           const std::vector<std::span<const Cell>>& spans,
                           FoldArena& arena, std::vector<Cell>* accumulator) {
  arena.EnsureDense(plan.cells);
  // Checkpoints run BETWEEN blocks of kCancelCheckStride cells, never
  // inside the kernel loops, so the uncancelled hot path pays nothing —
  // and an aborted fold stops at a block boundary with nothing emitted,
  // which keeps partially-executed queries' emitted chunks bit-identical
  // to an uncancelled run (docs/ALGORITHMS.md).
  auto abort_dense = [&]() {
    arena.ResetDense();  // wipes exactly the touched offsets
    accumulator->clear();
    return false;
  };
  // Existing accumulator cells (already at the target level) participate in
  // the fold first, then the source spans — the fixed merge order every
  // kernel preserves. The accumulator is read in full before the emit
  // below (or an abort) clears it.
  for (size_t base = 0; base < accumulator->size();
       base += kCancelCheckStride) {
    if (CancelCheckpoint()) return abort_dense();
    const size_t end = std::min(accumulator->size(), base + kCancelCheckStride);
    FoldCellsDense(plan, accumulator->data() + base, end - base,
                   /*at_source_level=*/false, fold_kernel_, arena);
  }
  for (const auto& span : spans) {
    for (size_t base = 0; base < span.size(); base += kCancelCheckStride) {
      if (CancelCheckpoint()) return abort_dense();
      const size_t end = std::min(span.size(), base + kCancelCheckStride);
      FoldCellsDense(plan, span.data() + base, end - base,
                     /*at_source_level=*/true, fold_kernel_, arena);
      tuples_processed_ += static_cast<int64_t>(end - base);
    }
  }
  // Emit in offset order (canonical row-major), iterating only the touched
  // offsets. The walker turns each offset into coordinates with a
  // mixed-radix digit increment instead of ValuesOf's per-dimension
  // div/mod chain (sorted offsets make consecutive deltas small).
  //
  // A fold that touched few cells sorts the touched list (O(k log k) over
  // the k touched offsets); once a significant fraction of the chunk was
  // hit, a linear scan of the occupancy bytes yields the same ascending
  // order for O(plan.cells) predictable work, which is far cheaper than
  // sorting — a fold that touches half a 64k-cell chunk would otherwise
  // spend more time in std::sort than in the fold itself.
  std::vector<int64_t>& touched = arena.touched();
  accumulator->clear();
  accumulator->reserve(touched.size());
  DenseEmitWalker walker(plan);
  const FoldState* states = arena.dense_states();
  const uint8_t* occupied = arena.dense_occupied();
  auto emit = [&](int64_t off) {
    Cell cell;
    walker.ValuesAt(off, cell.values.data());
    const FoldState& s = states[static_cast<size_t>(off)];
    cell.measure = s.sum;
    cell.count = s.count;
    cell.min = s.min;
    cell.max = s.max;
    accumulator->push_back(cell);
  };
  if (static_cast<int64_t>(touched.size()) >= plan.cells / 8) {
    for (int64_t off = 0; off < plan.cells; ++off) {
      if (occupied[static_cast<size_t>(off)]) emit(off);
    }
  } else {
    std::sort(touched.begin(), touched.end());
    for (int64_t off : touched) emit(off);
  }
  last_fold_.cells_touched = static_cast<int64_t>(touched.size());
  arena.ResetDense();
  return true;
}

bool Aggregator::FoldSpans(const RollupPlan& plan,
                           const std::vector<std::span<const Cell>>& spans,
                           std::vector<Cell>* accumulator) {
  // Existing accumulator cells participate in the fold so repeated calls
  // (one per source chunk) combine correctly.
  int64_t incoming = static_cast<int64_t>(accumulator->size());
  for (const auto& span : spans) incoming += static_cast<int64_t>(span.size());

  // Dense folding writes O(touched cells) thanks to the arena's
  // touched-offset list, but still needs O(target cells) of resident
  // scratch; only use it when the chunk is small or reasonably full,
  // otherwise fold into the flat sparse table.
  const bool use_dense =
      plan.cells <= kDenseCellLimit &&
      (plan.cells <= 4096 || plan.cells <= 4 * incoming);

  FoldArena& arena = arena_ != nullptr ? *arena_ : ThreadFoldArena();
  last_fold_ = FoldInfo();
  last_fold_.used_dense = use_dense;
  last_fold_.shape_cells = plan.cells;
  last_fold_.kernel =
      use_dense ? fold_kernel_ : FoldKernelKind::kScalar;  // sparse = scalar

  if (use_dense) return FoldDense(plan, spans, arena, accumulator);

  SparseFoldTable& table = arena.sparse();
  table.Reset(incoming);
  // No arena cleanup needed on abort: Reset() reinitializes the sparse
  // table at the next fold's entry.
  auto abort_sparse = [&]() {
    accumulator->clear();
    return false;
  };
  for (size_t base = 0; base < accumulator->size();
       base += kCancelCheckStride) {
    if (CancelCheckpoint()) return abort_sparse();
    const size_t end = std::min(accumulator->size(), base + kCancelCheckStride);
    for (size_t i = base; i < end; ++i) {
      const Cell& c = (*accumulator)[i];
      table.Slot(plan.TargetOffsetOf(c.values.data())).Merge(c);
    }
  }
  for (const auto& span : spans) {
    for (size_t base = 0; base < span.size(); base += kCancelCheckStride) {
      if (CancelCheckpoint()) return abort_sparse();
      const size_t end = std::min(span.size(), base + kCancelCheckStride);
      for (size_t i = base; i < end; ++i) {
        table.Slot(plan.SourceOffsetOf(span[i].values.data())).Merge(span[i]);
      }
      tuples_processed_ += static_cast<int64_t>(end - base);
    }
  }
  accumulator->clear();
  accumulator->reserve(static_cast<size_t>(table.size()));
  table.ForEach([&](int64_t off, const FoldState& s) {
    accumulator->push_back(MakeCell(plan, off, s));
  });
  last_fold_.cells_touched = table.size();
  return true;
}

}  // namespace aac
