#ifndef AAC_STORAGE_MORSEL_POOL_H_
#define AAC_STORAGE_MORSEL_POOL_H_

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "storage/rollup_plan.h"
#include "util/lockdep.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace aac {

/// Helper-thread pool for morsel-parallel folds, shared by every query of a
/// ConcurrentQueryEngine.
///
/// Acquisition is strictly opportunistic: RunPartitioned() takes however
/// many helpers are idle *right now* (up to the caller's cap) and never
/// queues or blocks waiting for one — a busy pool degrades a fold to fewer
/// lanes (ultimately serial on the caller's thread), it never delays it.
/// That is the admission-interplay guarantee: a storm of morsel-hungry
/// batch queries cannot stack up behind the helpers and starve the
/// interactive class, because nobody ever waits for a helper; the
/// per-class cap the Aggregator applies on top (batch queries may take at
/// most half the helpers) keeps a lone batch fold from even borrowing all
/// of them.
///
/// Each helper owns a private FoldArena handed to the lane function it
/// runs, so parallel lanes never share fold scratch. Helpers trim their
/// arena after each job when it retains more than FoldArena::kTrimBytes,
/// the bound QueryEngine applies to a client thread's arena after each
/// query.
class MorselPool {
 public:
  /// Spawns `num_helpers` persistent helper threads (>= 0).
  explicit MorselPool(int num_helpers);
  MorselPool(const MorselPool&) = delete;
  MorselPool& operator=(const MorselPool&) = delete;

  /// Joins the helpers. No RunPartitioned() call may be in flight.
  ~MorselPool();

  /// Lane function: `lane` in [0, lanes); lane 0 runs on the caller's
  /// thread with a null arena (the caller uses its own), helper lanes get
  /// their helper's private arena. Must partition its work by (lane,
  /// lanes) and must not touch another lane's state.
  using LaneFn = std::function<void(int lane, int lanes, FoldArena* arena)>;

  /// Runs `fn` across the caller plus up to `max_helpers` currently idle
  /// helpers; returns the lane count actually used (>= 1). Blocks only for
  /// the helpers it actually dispatched; with none idle it runs fn(0, 1,
  /// nullptr) inline and returns 1.
  int RunPartitioned(int max_helpers, const LaneFn& fn);

  int num_helpers() const { return static_cast<int>(helpers_.size()); }

  /// Incoming cells below which a dense fold stays serial instead of
  /// borrowing helpers: below it the fixed fan-out cost outweighs the win.
  /// Tests and benches lower it. Set it before any fold uses the pool.
  void set_min_cells(int64_t cells) { min_cells_ = cells; }
  int64_t min_cells() const { return min_cells_; }

  /// Default threshold: folds smaller than this stay serial.
  static constexpr int64_t kDefaultMinCells = 64 * 1024;

  struct Stats {
    int64_t parallel_runs = 0;      // RunPartitioned calls that got >= 1 helper
    int64_t serial_runs = 0;        // calls that found no idle helper
    int64_t helper_dispatches = 0;  // helper lanes dispatched in total
    int64_t helper_trims = 0;       // post-job helper-arena trims
  };
  Stats stats() const;

  /// Trims every helper arena, but only when the pool is fully idle (no
  /// pending lanes, every helper waiting); returns false without touching
  /// anything otherwise. Safe because helpers only use their arena between
  /// dequeue and completion, both bracketed by mutex_ — observing all of
  /// them idle under the lock means no arena is in use, and the lock
  /// ordering makes the trims visible to their next job.
  bool TrimIdleHelperArenas();

  /// Sum of retained_bytes() over the helper arenas, under the same
  /// fully-idle condition; returns -1 when the pool is busy.
  int64_t IdleHelperArenaRetainedBytes() const;

 private:
  struct Job {
    const LaneFn* fn = nullptr;
    int lanes = 0;
    int outstanding = 0;  // helper lanes not yet finished; guarded by mutex_
    CondVar done;
  };
  struct Assignment {
    Job* job = nullptr;
    int lane = 0;
  };

  void HelperLoop(size_t index);

  int64_t min_cells_ = kDefaultMinCells;  // written only before folds start
  mutable Mutex mutex_{LockRank::kMorselPool, "morsel_pool"};
  CondVar work_cv_;
  std::vector<Assignment> pending_ AAC_GUARDED_BY(mutex_);
  int idle_ AAC_GUARDED_BY(mutex_) = 0;
  bool stop_ AAC_GUARDED_BY(mutex_) = false;
  Stats stats_ AAC_GUARDED_BY(mutex_);

  // Helper i touches arenas_[i] only while running a job (between its
  // mutex-bracketed dequeue and completion); TrimIdleHelperArenas() touches
  // them only after observing every helper idle under mutex_.
  std::vector<FoldArena> arenas_;
  std::vector<std::thread> helpers_;
};

}  // namespace aac

#endif  // AAC_STORAGE_MORSEL_POOL_H_
