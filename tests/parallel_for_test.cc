#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/parallel_for.h"

namespace aac {
namespace {

TEST(ParallelFor, RunsEveryTaskOnceOnAtMostTasksWorkers) {
  constexpr size_t kTasks = 1000;
  for (size_t workers : {size_t{1}, size_t{3}, size_t{8}}) {
    std::vector<std::atomic<int>> runs(kTasks);
    std::vector<int64_t> per_worker(workers, 0);  // each written by one thread
    ParallelFor(workers, kTasks, [&](size_t worker, size_t task) {
      ASSERT_LT(worker, workers);
      runs[task].fetch_add(1, std::memory_order_relaxed);
      ++per_worker[worker];
    });
    for (size_t task = 0; task < kTasks; ++task) {
      EXPECT_EQ(runs[task].load(), 1) << "task " << task;
    }
    int64_t total = 0;
    for (int64_t n : per_worker) total += n;
    EXPECT_EQ(total, static_cast<int64_t>(kTasks)) << workers << " workers";
  }

  // Fewer tasks than workers: only worker indices below the task count.
  std::vector<std::atomic<int>> seen(8);
  ParallelFor(8, 2, [&](size_t worker, size_t) { seen[worker].fetch_add(1); });
  for (size_t w = 2; w < seen.size(); ++w) EXPECT_EQ(seen[w].load(), 0);
  EXPECT_EQ(seen[0].load() + seen[1].load(), 2);

  ParallelFor(4, 0, [&](size_t, size_t) { ADD_FAILURE() << "no tasks"; });
}

TEST(ParallelFor, OneWorkerRunsTheTasksInOrderOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  ParallelFor(1, 5, [&](size_t worker, size_t task) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(task);
  });
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));

  // One task starts no thread either, whatever the worker count.
  ParallelFor(8, 1, [&](size_t worker, size_t) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

}  // namespace
}  // namespace aac
