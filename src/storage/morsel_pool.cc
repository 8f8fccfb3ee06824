#include "storage/morsel_pool.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

MorselPool::MorselPool(int num_helpers) {
  AAC_CHECK(num_helpers >= 0);
  arenas_.resize(static_cast<size_t>(num_helpers));
  helpers_.reserve(static_cast<size_t>(num_helpers));
  idle_ = num_helpers;
  for (int i = 0; i < num_helpers; ++i) {
    helpers_.emplace_back([this, i] { HelperLoop(static_cast<size_t>(i)); });
  }
}

MorselPool::~MorselPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
    work_cv_.NotifyAll();
  }
  for (std::thread& t : helpers_) t.join();
}

int MorselPool::RunPartitioned(int max_helpers, const LaneFn& fn) {
  Job job;
  int helpers = 0;
  {
    MutexLock lock(mutex_);
    helpers = std::min(max_helpers, idle_);
    if (helpers > 0) {
      job.fn = &fn;
      job.lanes = helpers + 1;
      job.outstanding = helpers;
      for (int lane = 1; lane <= helpers; ++lane) {
        pending_.push_back(Assignment{&job, lane});
      }
      idle_ -= helpers;
      ++stats_.parallel_runs;
      stats_.helper_dispatches += helpers;
      work_cv_.NotifyAll();
    } else {
      ++stats_.serial_runs;
    }
  }
  // Lane 0 always runs on the caller's thread, using the caller's own
  // arena (null here; the Aggregator folds lane 0 into its arena).
  fn(0, helpers + 1, nullptr);
  if (helpers > 0) {
    // `job` lives on this stack frame; helpers hold raw pointers to it, so
    // we must not return before every dispatched lane has finished.
    MutexLock lock(mutex_);
    while (job.outstanding > 0) job.done.Wait(mutex_);
  }
  return helpers + 1;
}

void MorselPool::HelperLoop(size_t index) {
  while (true) {
    Assignment a;
    {
      MutexLock lock(mutex_);
      while (!stop_ && pending_.empty()) work_cv_.Wait(mutex_);
      if (pending_.empty()) return;  // stop_ set and nothing left to drain
      a = pending_.back();
      pending_.pop_back();
    }
    (*a.job->fn)(a.lane, a.job->lanes, &arenas_[index]);
    // Post-job hygiene: a giant fold must not pin its high-water scratch in
    // an idle helper forever. The arena is still helper-private here (we
    // have not rejoined the idle set), so the trim is race-free.
    const bool trimmed = arenas_[index].TrimIfAbove(FoldArena::kTrimBytes);
    {
      MutexLock lock(mutex_);
      ++idle_;
      if (trimmed) ++stats_.helper_trims;
      if (--a.job->outstanding == 0) a.job->done.NotifyAll();
    }
  }
}

MorselPool::Stats MorselPool::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

bool MorselPool::TrimIdleHelperArenas() {
  MutexLock lock(mutex_);
  if (!pending_.empty() || idle_ != num_helpers()) return false;
  for (FoldArena& arena : arenas_) arena.TrimToDefault();
  stats_.helper_trims += num_helpers();
  return true;
}

int64_t MorselPool::IdleHelperArenaRetainedBytes() const {
  MutexLock lock(mutex_);
  if (!pending_.empty() || idle_ != num_helpers()) return -1;
  int64_t total = 0;
  for (const FoldArena& arena : arenas_) total += arena.retained_bytes();
  return total;
}

}  // namespace aac
