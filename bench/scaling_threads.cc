// Thread-scaling of the parallel query path: the same warmed, cache-hit
// heavy workload driven through ParallelWorkloadRunner at 1, 2, 4 and 8
// threads over one shared sharded cache. With the cache warm, queries are
// answered by real middle-tier CPU work (strategy probes, in-cache
// aggregation, chunk copies), so wall-clock throughput measures how well
// the sharded locks, shared_mutex strategies and the one shared engine
// actually scale. Speedup is bounded by the machine's core count — on a single-core
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
  // Ample capacity: the whole workload fits, so after the warm passes the
  // measured runs are pure cache work with no eviction churn.
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

  // Warm to a fixed point: pass one caches backend fetches, pass two the
  // aggregated results, so the measured passes are backend-free and the
  // cache state is identical for every thread count.
  ParallelWorkloadRunner warmer(&concurrent, 1);
  warmer.Run(stream);
  const WorkloadTotals warm = warmer.Run(stream);

  const int reps = static_cast<int>(bench::EnvInt64("AAC_BENCH_REPS", 3));
  bench::CsvEmitter csv("scaling_threads",
                        {"threads", "best_ms", "queries_per_sec", "speedup"});
  TablePrinter table(
      {"threads", "best ms", "queries/s", "speedup", "hit %"});
  double base_ms = 0.0;
  for (const int threads : {1, 2, 4, 8}) {
    ParallelWorkloadRunner runner(&concurrent, threads);
    double best_ms = 0.0;
    WorkloadTotals totals;
    for (int r = 0; r < reps; ++r) {
      Stopwatch timer;
      totals = runner.Run(stream);
      const double ms = timer.ElapsedMillis();
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (threads == 1) base_ms = best_ms;
    const double qps =
        best_ms <= 0.0 ? 0.0
                       : static_cast<double>(totals.queries) * 1e3 / best_ms;
    const double speedup = best_ms <= 0.0 ? 0.0 : base_ms / best_ms;
    table.AddRow({std::to_string(threads), TablePrinter::Fmt(best_ms, 2),
                  TablePrinter::Fmt(qps, 0), TablePrinter::Fmt(speedup, 2),
                  TablePrinter::Fmt(totals.CompleteHitPercent(), 1)});
    csv.AddRow({std::to_string(threads), TablePrinter::Fmt(best_ms, 3),
                TablePrinter::Fmt(qps, 0), TablePrinter::Fmt(speedup, 3)});
  }
  table.Print();
  std::printf(
      "\nwarm-pass check: %.1f%% complete hits, %lld backend chunks (should "
      "be 0) across %lld queries.\n"
      "expected shape: near-linear speedup up to the core count (>= 2.5x at "
      "8 threads on a 4+ core machine); ~1x flat on a single core.\n\n",
      warm.CompleteHitPercent(), static_cast<long long>(warm.chunks_backend),
      static_cast<long long>(warm.queries));
}

}  // namespace
}  // namespace aac

int main() {
  aac::Run();
  return 0;
}
