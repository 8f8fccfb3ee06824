#ifndef AAC_STORAGE_AGGREGATOR_H_
#define AAC_STORAGE_AGGREGATOR_H_

#include <cstdint>
#include <span>
#include <vector>

#include "chunks/chunk_grid.h"
#include "storage/chunk_data.h"
#include "storage/fold_kernel.h"
#include "storage/rollup_plan.h"
#include "storage/tuple.h"
#include "util/deadline.h"

namespace aac {

/// Rolls chunk contents up the hierarchy: aggregates cells at a detailed
/// group-by into one chunk of a more aggregated group-by.
///
/// This is the cache's "active" operation — the paper's thesis is that
/// running this in the middle tier is roughly 8x faster than re-asking the
/// backend. The aggregator also counts the tuples it processes, which is the
/// paper's linear cost metric for comparing aggregation paths.
///
/// The rollup kernel runs off precomputed RollupPlans (ancestor→offset
/// tables, cached per (from, to, chunk) — shareable across aggregators via
/// set_plan_cache) and folds into a reusable FoldArena, so the
/// steady-state inner loop is one table load and one add per dimension with
/// no per-call allocation. An aggregator is cheap to build: QueryEngine
/// builds one per query. It is not thread-safe (counters, arena); the plan
/// cache is.
class Aggregator {
 public:
  /// `grid`, and `arena` when given, must outlive the aggregator. A null
  /// `arena` means each fold uses the calling thread's ThreadFoldArena().
  explicit Aggregator(const ChunkGrid* grid, FoldArena* arena = nullptr);

  /// Aggregates `sources` — chunks of group-by `from` — into chunk `chunk`
  /// of group-by `to`. Requires LevelOf(to) <= LevelOf(from) and that every
  /// source cell maps into `chunk`. Cells with equal target coordinates are
  /// summed.
  ChunkData Aggregate(GroupById from,
                      const std::vector<const ChunkData*>& sources,
                      GroupById to, ChunkId chunk);

  /// Same, over a raw span of cells at group-by `from` (used by the backend
  /// to aggregate straight from fact-table chunk slices).
  ChunkData AggregateCells(GroupById from, std::span<const Cell> cells,
                           GroupById to, ChunkId chunk);

  /// Same, over multiple spans folded in one pass (the backend's scan of
  /// several clustered fact-table chunk slices).
  ChunkData AggregateSpans(GroupById from,
                           const std::vector<std::span<const Cell>>& spans,
                           GroupById to, ChunkId chunk);

  /// Cumulative number of source tuples processed by all calls; the linear
  /// aggregation cost of the paper's Section 5.
  int64_t tuples_processed() const { return tuples_processed_; }

  /// Cumulative wall-clock nanoseconds spent in the rollup kernel (plan
  /// lookup + fold + emit) — the `fold_ns` component of per-query stats.
  int64_t fold_nanos() const { return fold_nanos_; }

  /// Resets the tuples_processed(), fold_nanos() and cancel_checks()
  /// counters.
  void ResetCounters() {
    tuples_processed_ = 0;
    fold_nanos_ = 0;
    cancel_checks_ = 0;
  }

  /// Arms cooperative cancellation: while `ctx` is non-null, the fold loops
  /// evaluate ctx->ShouldAbort() every few thousand cells and abandon the
  /// fold when it fires — pins are the executor's concern, but the arena is
  /// wiped here so the next fold starts clean, and the aborted fold's
  /// output is discarded (never a torn chunk). Null (the default) folds
  /// uncancellably with zero per-cell overhead. The engine sets this per
  /// query; the pointer must outlive the calls made under it.
  void set_exec_context(const ExecContext* ctx) { exec_context_ = ctx; }

  /// True when the most recent Aggregate* call was abandoned at a
  /// cancellation checkpoint; its returned ChunkData is empty and must be
  /// discarded.
  bool last_fold_cancelled() const { return last_fold_cancelled_; }

  /// Cumulative cancellation checkpoints evaluated inside fold loops.
  int64_t cancel_checks() const { return cancel_checks_; }

  /// Shares `cache` as the rollup-plan cache (e.g. the engine's cache, read
  /// by every query). Null restores the aggregator's private cache. The
  /// cache must outlive the aggregator and must only ever be used with this
  /// aggregator's grid.
  void set_plan_cache(RollupPlanCache* cache) {
    plan_cache_ = cache != nullptr ? cache : &owned_plan_cache_;
  }

  /// The plan cache currently in use (private by default).
  const RollupPlanCache& plan_cache() const { return *plan_cache_; }

  /// Forces the dense fold inner loop onto one kernel (tests, benches).
  /// The default is DefaultFoldKernel() — the AAC_FOLD_KERNEL environment
  /// variable, else vector where the CPU supports it. Either kernel
  /// produces bit-identical output (DESIGN.md §13).
  void set_fold_kernel(FoldKernelKind kind) { fold_kernel_ = kind; }
  FoldKernelKind fold_kernel() const { return fold_kernel_; }

  /// Debug/test introspection of the most recent fold.
  struct FoldInfo {
    bool used_dense = false;
    int64_t shape_cells = 0;    // target chunk capacity
    int64_t cells_touched = 0;  // distinct target cells written (the emit
                                // visits only these, never shape_cells)
    FoldKernelKind kernel = FoldKernelKind::kScalar;  // dense kernel used
  };
  const FoldInfo& last_fold() const { return last_fold_; }

 private:
  /// Folds all spans into the accumulator. Returns false when a
  /// cancellation checkpoint fired mid-fold; the accumulator is then empty
  /// and the arena has been wiped. Updates tuples_processed_ with the span
  /// cells actually merged.
  bool FoldSpans(const RollupPlan& plan,
                 const std::vector<std::span<const Cell>>& spans,
                 std::vector<Cell>* accumulator);

  /// FoldSpans' dense path: folds the accumulator's cells, then `spans`,
  /// into the arena's dense buffers for the whole target chunk, and emits
  /// the touched cells in offset order back into *accumulator.
  bool FoldDense(const RollupPlan& plan,
                 const std::vector<std::span<const Cell>>& spans,
                 FoldArena& arena, std::vector<Cell>* accumulator);

  /// One cancellation checkpoint: true = abort the fold now.
  bool CancelCheckpoint() {
    if (exec_context_ == nullptr) return false;
    ++cancel_checks_;
    return exec_context_->ShouldAbort();
  }

  const ChunkGrid* grid_;
  RollupPlanCache owned_plan_cache_;
  RollupPlanCache* plan_cache_;
  FoldArena* arena_;  // null: the calling thread's
  FoldInfo last_fold_;
  const ExecContext* exec_context_ = nullptr;
  FoldKernelKind fold_kernel_ = DefaultFoldKernel();
  bool last_fold_cancelled_ = false;
  int64_t cancel_checks_ = 0;
  int64_t tuples_processed_ = 0;
  int64_t fold_nanos_ = 0;
};

}  // namespace aac

#endif  // AAC_STORAGE_AGGREGATOR_H_
