// Thread-scaling of the parallel query path: the same warmed, cache-hit
// heavy workload driven through ParallelWorkloadRunner at 1, 2, 4 and 8
// threads over one shared sharded cache. With the cache warm, most queries
// are answered by middle-tier CPU work (strategy probes, in-cache
// aggregation, chunk copies), so wall-clock throughput shows how the
// sharded locks, shared_mutex strategies and the one shared engine scale.
// Not all of them: each row also prints the chunks its passes fetched from
// the backend and the evictions they caused, and its time includes that
// work. Speedup is bounded by the machine's core count — on a single-core
// host every thread count collapses to ~1x and only the absence of
// slowdown (lock overhead) is observable.

#include <cstdio>
#include <memory>
#include <thread>

#include "bench/support.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"
#include "workload/parallel_runner.h"

namespace aac {
namespace {

void Run() {
  ExperimentConfig config = bench::BaseConfig();
  config.cache_shards = 16;
  // 8x the base table's bytes, but each of the 16 shards gets a fixed
  // sixteenth, and the workload's chunks do not hash evenly: a few shards
  // fill and evict while others stay part-empty. So the warm passes do
  // not reach a fixed point, and a measured pass can evict a planned input
  // and fetch it from the backend.
  config.cache_fraction = 8.0;
  Experiment exp(config);
  bench::PrintBanner("thread scaling: parallel query execution",
                     "scalability extension (not in the paper): sharded "
                     "cache + one shared engine vs a serial run",
                     exp);
  std::printf("hardware threads available: %u\n\n",
              std::thread::hardware_concurrency());

  QueryStreamGenerator gen(&exp.schema(), bench::StreamConfig());
  const std::vector<QueryStreamEntry> stream = gen.Generate();

  ConcurrentQueryEngine concurrent([&exp] { return exp.NewEngine(); });

  // Warm with two serial passes: pass one caches backend fetches, pass two
  // the aggregated results.
  ParallelWorkloadRunner warmer(&concurrent, 1);
  const int64_t evictions_at_start = exp.cache().stats().evictions;
  warmer.Run(stream);
  const WorkloadTotals warm = warmer.Run(stream);
  const int64_t warm_evictions =
      exp.cache().stats().evictions - evictions_at_start;

  const int reps = static_cast<int>(bench::EnvInt64("AAC_BENCH_REPS", 3));
  bench::CsvEmitter csv("scaling_threads",
                        {"threads", "best_ms", "queries_per_sec", "speedup",
                         "hit_pct", "backend_chunks", "evictions"});
  TablePrinter table({"threads", "best ms", "queries/s", "speedup", "hit %",
                      "backend chunks", "evictions"});
  double base_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    ParallelWorkloadRunner runner(&concurrent, threads);
    const int64_t evictions_before = exp.cache().stats().evictions;
    double best_ms = 0.0;
    // Hit %, backend chunks and evictions are counted over all the row's
    // passes; the time is the best pass's.
    WorkloadTotals row;
    for (int r = 0; r < reps; ++r) {
      Stopwatch timer;
      const WorkloadTotals totals = runner.Run(stream);
      const double ms = timer.ElapsedMillis();
      if (r == 0 || ms < best_ms) best_ms = ms;
      row.queries += totals.queries;
      row.complete_hits += totals.complete_hits;
      row.chunks_backend += totals.chunks_backend;
    }
    const int64_t evictions = exp.cache().stats().evictions - evictions_before;
    if (threads == 1) base_ms = best_ms;
    const double qps =
        best_ms <= 0.0 ? 0.0
                       : static_cast<double>(stream.size()) * 1e3 / best_ms;
    const double speedup = best_ms <= 0.0 ? 0.0 : base_ms / best_ms;
    table.AddRow({std::to_string(threads), TablePrinter::Fmt(best_ms, 2),
                  TablePrinter::Fmt(qps, 0), TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(row.CompleteHitPercent(), 1),
                  std::to_string(row.chunks_backend),
                  std::to_string(evictions)});
    csv.AddRow({std::to_string(threads), TablePrinter::Fmt(best_ms, 3),
                TablePrinter::Fmt(qps, 0), TablePrinter::Fmt(speedup, 3),
                TablePrinter::Fmt(row.CompleteHitPercent(), 2),
                std::to_string(row.chunks_backend),
                std::to_string(evictions)});
  }
  table.Print();
  std::printf(
      "\nwarm passes: the second read %.1f%% complete hits and %lld backend "
      "chunks across %lld queries; %lld evictions in both.\n"
      "expected shape: near-linear speedup up to the core count (>= 2.5x at "
      "8 threads on a 4+ core machine); ~1x flat on a single core. The "
      "speedups include the backend and eviction work counted per row.\n\n",
      warm.CompleteHitPercent(), static_cast<long long>(warm.chunks_backend),
      static_cast<long long>(warm.queries),
      static_cast<long long>(warm_evictions));
}

}  // namespace
}  // namespace aac

int main() {
  aac::Run();
  return 0;
}
