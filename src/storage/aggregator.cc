#include "storage/aggregator.h"

#include <algorithm>
#include <utility>

#include "storage/morsel_pool.h"
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

Aggregator::WindowFoldOutcome Aggregator::FoldDenseWindow(
    const RollupPlan& plan, const std::vector<Cell>& acc_cells,
    const std::vector<std::span<const Cell>>& spans, FoldArena& arena,
    int64_t lo, int64_t hi, std::atomic<bool>* shared_abort,
    std::vector<Cell>* out) const {
  WindowFoldOutcome res;
  arena.EnsureDense(hi - lo);
  const DenseFoldWindow window{arena.dense_states(), arena.dense_occupied(),
                               &arena.touched(), lo, hi};
  // Checkpoints run BETWEEN blocks of kCancelCheckStride cells, never
  // inside the kernel loops, so the uncancelled hot path pays nothing —
  // and an aborted lane stops at a block boundary with nothing emitted,
  // which keeps partially-executed queries' emitted chunks bit-identical
  // to an uncancelled run (docs/ALGORITHMS.md). A lane that aborts raises
  // shared_abort so sibling lanes stop at their next checkpoint too.
  auto should_abort = [&]() {
    bool fired = false;
    if (exec_context_ != nullptr) {
      ++res.cancel_checks;
      fired = exec_context_->ShouldAbort();
    }
    if (!fired && shared_abort != nullptr) {
      fired = shared_abort->load(std::memory_order_relaxed);
    }
    return fired;
  };
  auto abort_now = [&]() {
    if (shared_abort != nullptr) {
      shared_abort->store(true, std::memory_order_relaxed);
    }
    arena.ResetDense();  // wipes exactly the touched offsets
    out->clear();
    res.completed = false;
    return res;
  };
  // Existing accumulator cells (already at the target level) participate in
  // the fold first, then the source spans — the fixed merge order every
  // kernel and every lane preserves.
  for (size_t base = 0; base < acc_cells.size(); base += kCancelCheckStride) {
    if (should_abort()) return abort_now();
    const size_t end = std::min(acc_cells.size(), base + kCancelCheckStride);
    FoldCellsDense(plan, acc_cells.data() + base, end - base,
                   /*at_source_level=*/false, fold_kernel_, window);
  }
  for (const auto& span : spans) {
    for (size_t base = 0; base < span.size(); base += kCancelCheckStride) {
      if (should_abort()) return abort_now();
      const size_t end = std::min(span.size(), base + kCancelCheckStride);
      FoldCellsDense(plan, span.data() + base, end - base,
                     /*at_source_level=*/true, fold_kernel_, window);
      res.tuples_scanned += static_cast<int64_t>(end - base);
    }
  }
  // Emit in offset order (canonical row-major), iterating only the touched
  // offsets. The walker turns each offset into coordinates with a
  // mixed-radix digit increment instead of ValuesOf's per-dimension
  // div/mod chain (sorted offsets make consecutive deltas small).
  //
  // Sparse windows sort the touched list (O(k log k) over the k touched
  // offsets); once a significant fraction of the window was hit, a linear
  // scan of the occupancy bytes yields the same ascending order for O(hi -
  // lo) predictable work, which is far cheaper than sorting — a fold that
  // touches half a 64k-cell chunk would otherwise spend more time in
  // std::sort than in the fold itself.
  std::vector<int64_t>& touched = arena.touched();
  out->clear();
  out->reserve(touched.size());
  DenseEmitWalker walker(plan);
  const FoldState* states = arena.dense_states();
  const uint8_t* occupied = arena.dense_occupied();
  auto emit_local = [&](int64_t local) {
    Cell cell;
    walker.ValuesAt(lo + local, cell.values.data());
    const FoldState& s = states[static_cast<size_t>(local)];
    cell.measure = s.sum;
    cell.count = s.count;
    cell.min = s.min;
    cell.max = s.max;
    out->push_back(cell);
  };
  const int64_t window_cells = hi - lo;
  if (static_cast<int64_t>(touched.size()) >= window_cells / 8) {
    for (int64_t local = 0; local < window_cells; ++local) {
      if (occupied[static_cast<size_t>(local)]) emit_local(local);
    }
  } else {
    std::sort(touched.begin(), touched.end());
    for (int64_t local : touched) emit_local(local);
  }
  res.cells_touched = static_cast<int64_t>(touched.size());
  arena.ResetDense();
  return res;
}

bool Aggregator::FoldSpansDenseParallel(
    const RollupPlan& plan, const std::vector<std::span<const Cell>>& spans,
    FoldArena& arena, std::vector<Cell>* accumulator, int max_helpers) {
  // Move the incoming accumulator cells aside: every lane reads them while
  // lane 0's emit would otherwise be writing the same vector.
  const std::vector<Cell> input = std::move(*accumulator);
  accumulator->clear();

  const int max_lanes = 1 + max_helpers;
  std::vector<std::vector<Cell>> lane_out(static_cast<size_t>(max_lanes));
  std::vector<WindowFoldOutcome> lane_res(static_cast<size_t>(max_lanes));
  std::atomic<bool> abort{false};
  const int64_t cells = plan.cells;
  const int lanes = morsel_pool_->RunPartitioned(
      max_helpers, [&](int lane, int total_lanes, FoldArena* helper_arena) {
        // Contiguous target-offset windows, ascending in lane order; with
        // cells >= total_lanes every window is non-empty.
        const int64_t lo = cells * lane / total_lanes;
        const int64_t hi = cells * (lane + 1) / total_lanes;
        lane_res[static_cast<size_t>(lane)] = FoldDenseWindow(
            plan, input, spans, lane == 0 ? arena : *helper_arena, lo, hi,
            &abort, &lane_out[static_cast<size_t>(lane)]);
      });

  bool completed = true;
  int64_t touched = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    const WindowFoldOutcome& res = lane_res[static_cast<size_t>(lane)];
    cancel_checks_ += res.cancel_checks;
    completed = completed && res.completed;
    touched += res.cells_touched;
  }
  // Lane 0 scans every span exactly once, so its scan count is the serial
  // fold's tuple cost (partial when it aborted mid-scan, like serial).
  tuples_processed_ += lane_res[0].tuples_scanned;
  last_fold_.morsel_lanes = lanes;
  if (!completed) {
    // Every lane wiped its own arena (aborting lanes in abort_now, lanes
    // that finished first via their normal emit path); outputs discarded.
    return false;
  }
  // Windows ascend with lane order and each lane emits in offset order, so
  // plain concatenation is the canonical row-major emit order.
  size_t total = 0;
  for (int lane = 0; lane < lanes; ++lane) {
    total += lane_out[static_cast<size_t>(lane)].size();
  }
  accumulator->reserve(total);
  for (int lane = 0; lane < lanes; ++lane) {
    std::vector<Cell>& part = lane_out[static_cast<size_t>(lane)];
    accumulator->insert(accumulator->end(), part.begin(), part.end());
  }
  last_fold_.cells_touched = touched;
  last_fold_.emit_iterations = touched;
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

  if (use_dense) {
    // Try the morsel-parallel path for large folds: borrow however many
    // pool helpers are idle right now (never wait — a busy pool means a
    // serial fold, not a queued one), capped to half the helpers for
    // batch-class queries so batch rollups cannot monopolize the pool.
    int max_helpers = 0;
    if (morsel_pool_ != nullptr && incoming >= morsel_pool_->min_cells()) {
      max_helpers = morsel_pool_->num_helpers();
      if (exec_context_ != nullptr &&
          exec_context_->query_class == QueryClass::kBatch) {
        max_helpers /= 2;
      }
      max_helpers = static_cast<int>(
          std::min<int64_t>(max_helpers, plan.cells - 1));
    }
    if (max_helpers > 0) {
      return FoldSpansDenseParallel(plan, spans, arena, accumulator,
                                    max_helpers);
    }
    // Serial: one full-range window on the caller's arena. Passing the
    // accumulator as both input and output is safe — FoldDenseWindow reads
    // every input cell before its emit (or abort) clears the output.
    WindowFoldOutcome res =
        FoldDenseWindow(plan, *accumulator, spans, arena, 0, plan.cells,
                        /*shared_abort=*/nullptr, accumulator);
    cancel_checks_ += res.cancel_checks;
    tuples_processed_ += res.tuples_scanned;
    last_fold_.cells_touched = res.cells_touched;
    last_fold_.emit_iterations = res.cells_touched;
    return res.completed;
  }

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
  last_fold_.emit_iterations = table.size();
  return true;
}

}  // namespace aac
