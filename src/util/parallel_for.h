#ifndef AAC_UTIL_PARALLEL_FOR_H_
#define AAC_UTIL_PARALLEL_FOR_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <system_error>
#include <thread>
#include <vector>

namespace aac {

// The one place src/ starts threads (tools/lint_invariants.py R11 bans a
// std::thread anywhere else). Every parallel phase in the tree has the same
// shape: a fixed list of independent tasks, workers that claim the next
// task from one atomic counter, and a join after which the caller reads
// what the workers wrote. Threads are started per call rather than parked:
// a start costs ~20 us, while libstdc++'s std::barrier wakes a sleeping
// waiter about a millisecond late (DESIGN.md §8).

/// Worker threads this machine runs at once: hardware_concurrency(), or 1
/// when the standard library cannot tell.
inline size_t HardwareWorkers() {
  return std::max<size_t>(std::thread::hardware_concurrency(), 1);
}

/// Calls fn(worker, task) once for every task in [0, tasks), on
/// min(workers, tasks) workers: the calling thread is worker 0 and the
/// others are threads started here. Each worker claims the next unclaimed
/// task until none is left, so which worker runs a task varies from run to
/// run; state indexed by `worker` is owned by one thread for the whole
/// call. Returns once every worker has joined, so everything the workers
/// wrote is visible to the caller. With one worker (or one task) no thread
/// starts and the tasks run in order on the caller; when a thread cannot
/// start, the workers already running do its share.
template <typename Fn>
void ParallelFor(size_t workers, size_t tasks, Fn&& fn) {
  workers = std::min(workers, tasks);
  if (workers <= 1) {
    for (size_t task = 0; task < tasks; ++task) fn(size_t{0}, task);
    return;
  }
  std::atomic<size_t> next{0};
  const auto run = [&](size_t worker) {
    for (size_t task = next.fetch_add(1, std::memory_order_relaxed);
         task < tasks; task = next.fetch_add(1, std::memory_order_relaxed)) {
      fn(worker, task);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(workers - 1);
  for (size_t worker = 1; worker < workers; ++worker) {
    try {
      pool.emplace_back(run, worker);
    } catch (const std::system_error&) {
      // No thread could start (the process or host is out of threads).
      // The workers already running, the caller among them, claim its
      // tasks; the threads started so far must be joined below, since
      // destroying a running std::thread ends the program.
      break;
    }
  }
  run(0);
  for (std::thread& thread : pool) thread.join();
}

}  // namespace aac

#endif  // AAC_UTIL_PARALLEL_FOR_H_
