#ifndef AAC_STORAGE_ROLLUP_PLAN_H_
#define AAC_STORAGE_ROLLUP_PLAN_H_

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

#include "chunks/chunk_grid.h"
#include "storage/tuple.h"
#include "util/check.h"

namespace aac {

/// Precomputed source-cell → target-offset mapping for one rollup target:
/// aggregating cells of group-by `from` into one chunk of group-by `to`.
///
/// The kernel's inner loop used to walk the dimension hierarchy level by
/// level per cell (Dimension::AncestorValue). A RollupPlan flattens that,
/// once per fold, into a contiguous `int32_t` table per dimension:
///
///   table[d][v - src_begin[d]] == (ancestor(v) - range_begin[d]) * stride[d]
///
/// so mapping a source cell to its offset inside the target chunk is one
/// load and one add per dimension. Every table entry is validated when the
/// plan is built (each source value in the window provably maps inside the
/// chunk), which is what lets the per-cell range checks demote from
/// AAC_CHECK to AAC_DCHECK.
///
/// Each fold builds its own plan and drops it when the fold ends. A plan
/// is movable but not copyable: `table` points into `storage`.
struct RollupPlan {
  RollupPlan() = default;
  RollupPlan(RollupPlan&&) = default;
  RollupPlan& operator=(RollupPlan&&) = default;
  RollupPlan(const RollupPlan&) = delete;
  RollupPlan& operator=(const RollupPlan&) = delete;

  int num_dims = 0;

  /// Target chunk cell count (mixed-radix capacity of the offsets).
  int64_t cells = 1;

  // Target chunk shape: value range begin, width and row-major stride per
  // dimension.
  std::array<int32_t, kMaxDims> range_begin{};
  std::array<int32_t, kMaxDims> width{};
  std::array<int64_t, kMaxDims> stride{};

  // Source value window per dimension: the contiguous range of value ids at
  // the `from` level that map into the target chunk (the descendant range
  // of the chunk's value range). Cells outside the window do not belong to
  // this rollup at all.
  std::array<int32_t, kMaxDims> src_begin{};
  std::array<int32_t, kMaxDims> src_width{};

  /// Per-dimension tables, concatenated; `table[d]` points at
  /// `src_width[d]` premultiplied entries inside `storage`. Entries fit in
  /// int32_t because offsets within one chunk are < cells <= INT32_MAX
  /// (checked at build time; realistic chunks are orders of magnitude
  /// smaller).
  std::vector<int32_t> storage;
  std::array<const int32_t*, kMaxDims> table{};

  /// Offset inside the target chunk of a source cell (values at the `from`
  /// level). The hot path: one load and one add per dimension.
  int64_t SourceOffsetOf(const int32_t* values) const {
    int64_t off = 0;
    for (int d = 0; d < num_dims; ++d) {
      const int32_t rel = values[d] - src_begin[static_cast<size_t>(d)];
      // Demoted to DCHECK: table contents are range-validated at build
      // time, so only a caller handing cells from the wrong chunk can get
      // here — a programmer error, caught in debug/sanitizer builds.
      AAC_DCHECK(rel >= 0 && rel < src_width[static_cast<size_t>(d)]);
      off += table[static_cast<size_t>(d)][static_cast<size_t>(rel)];
    }
    return off;
  }

  /// Target-level values of an offset inside the target chunk (offsets
  /// are row-major over `width`).
  void ValuesOf(int64_t offset, int32_t* values) const {
    for (int d = 0; d < num_dims; ++d) {
      values[d] = range_begin[static_cast<size_t>(d)] +
                  static_cast<int32_t>(offset / stride[static_cast<size_t>(d)]);
      offset %= stride[static_cast<size_t>(d)];
    }
  }
};

/// Emits target-level coordinates for a non-decreasing sequence of dense
/// offsets without the per-dimension div/mod of RollupPlan::ValuesOf:
/// offsets are mixed-radix numbers over the chunk widths, so stepping from
/// one touched offset to the next is a digit increment with carries. The
/// emit loop visits touched offsets in sorted order, and consecutive
/// touched offsets are typically adjacent (delta 1..width of the innermost
/// dimension), so the common step is one add and no divides; larger jumps
/// fall back to the div/mod seed.
class DenseEmitWalker {
 public:
  explicit DenseEmitWalker(const RollupPlan& plan) : plan_(plan) {}

  /// Writes the target-level values of `offset` into `values[0..num_dims)`.
  /// Offsets must be presented in non-decreasing order.
  void ValuesAt(int64_t offset, int32_t* values) {
    const int nd = plan_.num_dims;
    const int last = nd - 1;
    const int64_t delta = offset - offset_;
    AAC_DCHECK(!primed_ || delta >= 0);
    if (!primed_ || delta > plan_.width[static_cast<size_t>(last)]) {
      // Seed (or re-seed after a long jump) with the full division chain.
      int64_t rest = offset;
      for (int d = 0; d < nd; ++d) {
        digits_[static_cast<size_t>(d)] =
            static_cast<int32_t>(rest / plan_.stride[static_cast<size_t>(d)]);
        rest %= plan_.stride[static_cast<size_t>(d)];
      }
      primed_ = true;
    } else {
      // delta <= width[last] guarantees at most one carry out of each
      // digit, so a single ripple pass restores canonical form.
      digits_[static_cast<size_t>(last)] += static_cast<int32_t>(delta);
      for (int d = last;
           d > 0 && digits_[static_cast<size_t>(d)] >=
                        plan_.width[static_cast<size_t>(d)];
           --d) {
        digits_[static_cast<size_t>(d)] -= plan_.width[static_cast<size_t>(d)];
        ++digits_[static_cast<size_t>(d - 1)];
      }
    }
    offset_ = offset;
    for (int d = 0; d < nd; ++d) {
      values[d] = plan_.range_begin[static_cast<size_t>(d)] +
                  digits_[static_cast<size_t>(d)];
    }
  }

 private:
  const RollupPlan& plan_;
  std::array<int32_t, kMaxDims> digits_{};
  int64_t offset_ = 0;
  bool primed_ = false;
};

/// Builds the plan for aggregating group-by `from` into `chunk` of `to`.
/// Requires `to` computable from `from` (lattice ancestor, reflexive).
RollupPlan BuildRollupPlan(const ChunkGrid& grid, GroupById from, GroupById to,
                           ChunkId chunk);

/// Aggregate state folded per target cell (sum/count/min/max merge
/// cell-wise; see storage/tuple.h).
struct FoldState {
  double sum = 0.0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Merge(const Cell& c) {
    sum += c.measure;
    count += c.count;
    if (c.min < min) min = c.min;
    if (c.max > max) max = c.max;
  }
  void Reset() { *this = FoldState(); }
};

/// Flat open-addressing fold table for the sparse path: power-of-two
/// capacity, linear probing, tombstone-free (the table only ever grows
/// within one fold and is wiped between folds via the used-slot list).
/// Replaces the old std::unordered_map<int64_t, State> — no per-node
/// allocation, no pointer chasing, and the buffers are recycled across
/// folds by the owning FoldArena.
class SparseFoldTable {
 public:
  /// Prepares the table for a fold of at most `expected` distinct keys:
  /// grows capacity to keep load factor <= 0.5 and wipes slots used by the
  /// previous fold (touching only those slots, not the whole table).
  void Reset(int64_t expected);

  /// Find-or-insert; returns the fold state for `key`. `key` must be >= 0.
  FoldState& Slot(int64_t key) {
    size_t i = Mix(key) & mask_;
    while (keys_[i] != key) {
      if (keys_[i] == kEmpty) {
        AAC_CHECK_LT(used_.size(), keys_.size() / 2 + 1);  // Reset() sizing
        keys_[i] = key;
        used_.push_back(i);
        break;
      }
      i = (i + 1) & mask_;
    }
    return states_[i];
  }

  int64_t size() const { return static_cast<int64_t>(used_.size()); }

  /// Visits (key, state) pairs in insertion order (deterministic emit).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t i : used_) fn(keys_[i], states_[i]);
  }

  /// Heap bytes currently retained by the slot buffers.
  int64_t retained_bytes() const {
    return static_cast<int64_t>(keys_.capacity() * sizeof(int64_t) +
                                states_.capacity() * sizeof(FoldState) +
                                used_.capacity() * sizeof(size_t));
  }

  /// Releases all slot buffers (the next Reset() rebuilds at minimum
  /// capacity and grows from there).
  void TrimToDefault() {
    std::vector<int64_t>().swap(keys_);
    std::vector<FoldState>().swap(states_);
    std::vector<size_t>().swap(used_);
    mask_ = 0;
  }

 private:
  static constexpr int64_t kEmpty = -1;
  static size_t Mix(int64_t key) {
    uint64_t h = static_cast<uint64_t>(key);
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return static_cast<size_t>(h);
  }

  std::vector<int64_t> keys_;      // kEmpty marks free slots
  std::vector<FoldState> states_;  // parallel to keys_
  std::vector<size_t> used_;       // slots occupied by the current fold
  size_t mask_ = 0;                // capacity - 1 (capacity is a power of 2)
};

/// Reusable scratch buffers for the rollup kernel, recycled across folds so
/// dense multi-MB state arrays are not reallocated and re-zeroed per call.
/// Buffers grow to the largest fold seen and are wiped incrementally: only
/// the offsets actually touched by the previous fold are reset (the
/// touched-offset list), so a fold of k cells into an N-cell chunk costs
/// O(k), not O(N).
///
/// Not thread-safe. Each thread folds into its own (ThreadFoldArena()),
/// and each worker of a backend call into one of the server's arenas,
/// which the call owns while it holds the server's mutex.
class FoldArena {
 public:
  /// Prepares the dense buffers for a chunk of `cells` cells. New capacity
  /// is zero-initialized by the growth itself; previously used offsets were
  /// wiped by the last ResetDense().
  void EnsureDense(int64_t cells) {
    if (static_cast<int64_t>(dense_states_.size()) < cells) {
      dense_states_.resize(static_cast<size_t>(cells));
      dense_occupied_.resize(static_cast<size_t>(cells), 0);
    }
  }

  FoldState* dense_states() { return dense_states_.data(); }
  uint8_t* dense_occupied() { return dense_occupied_.data(); }
  std::vector<int64_t>& touched() { return touched_; }

  /// Wipes exactly the offsets the current fold touched, leaving the dense
  /// buffers all-default for the next fold.
  void ResetDense() {
    for (int64_t off : touched_) {
      dense_states_[static_cast<size_t>(off)].Reset();
      dense_occupied_[static_cast<size_t>(off)] = 0;
    }
    touched_.clear();
  }

  SparseFoldTable& sparse() { return sparse_; }

  /// Current dense capacity in cells (high-water mark), for tests and
  /// memory accounting.
  int64_t dense_capacity() const {
    return static_cast<int64_t>(dense_states_.size());
  }

  /// Heap bytes currently retained by every scratch buffer (dense states,
  /// occupancy bytes, touched list, sparse table). One huge fold leaves the
  /// arena holding its high-water mark until TrimIfAbove() gives it back.
  int64_t retained_bytes() const {
    return static_cast<int64_t>(dense_states_.capacity() * sizeof(FoldState) +
                                dense_occupied_.capacity() +
                                touched_.capacity() * sizeof(int64_t)) +
           sparse_.retained_bytes();
  }

  /// Releases every scratch buffer. Only valid between folds (after
  /// ResetDense(), i.e. with no touched offsets outstanding); the next
  /// EnsureDense()/sparse Reset() re-grows from empty, value-initialized.
  void TrimToDefault() {
    AAC_DCHECK(touched_.empty());
    std::vector<FoldState>().swap(dense_states_);
    std::vector<uint8_t>().swap(dense_occupied_);
    std::vector<int64_t>().swap(touched_);
    sparse_.TrimToDefault();
  }

  /// TrimToDefault() when more than `limit_bytes` are retained; returns
  /// true when it trimmed. Same precondition as TrimToDefault().
  bool TrimIfAbove(int64_t limit_bytes) {
    if (retained_bytes() <= limit_bytes) return false;
    TrimToDefault();
    return true;
  }

  /// The retention bound a thread's arena is trimmed to after each
  /// QueryEngine query.
  static constexpr int64_t kTrimBytes = int64_t{16} << 20;

 private:
  std::vector<FoldState> dense_states_;
  std::vector<uint8_t> dense_occupied_;
  std::vector<int64_t> touched_;
  SparseFoldTable sparse_;
};

/// The calling thread's fold arena: an Aggregator built without an arena
/// of its own folds into it, so every query a thread runs reuses the same
/// scratch.
FoldArena& ThreadFoldArena();

}  // namespace aac

#endif  // AAC_STORAGE_ROLLUP_PLAN_H_
