// Ablation microbenchmarks (google-benchmark): the lookup design space on a
// preloaded cache. The paper compares ESM (first path, no state), ESMC
// (exhaustive best path, no state) and VCM/VCMC (O(1) lookup, maintenance
// on update). This reproduction adds MemoESMC — exact best path computed at
// lookup time with per-lookup memoization — to separate the cost of
// *exhaustive enumeration* (what kills ESMC) from the cost of *cost
// optimality* (cheap with either memoization or maintained state). Also
// measures the maintenance side: insert/evict listener costs for VCM/VCMC.

#include <benchmark/benchmark.h>

#include <memory>

#include "core/esm.h"
#include "core/memo_esmc.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "util/rng.h"
#include "workload/experiment.h"

namespace aac {
namespace {

// One shared preloaded experiment (base group-by cached).
Experiment& PreloadedExperiment() {
  static Experiment* exp = [] {
    ExperimentConfig config;
    config.data.num_tuples = 100'000;
    config.cache_fraction = 1.3;
    config.strategy = StrategyKind::kVcmc;
    config.preload = true;
    return new Experiment(config);
  }();
  return *exp;
}

// Probes chunk 0 of successive group-bys (most detailed first), so every
// aggregation depth is exercised.
template <typename Strategy>
void ProbeLoop(benchmark::State& state, Strategy& strategy) {
  Experiment& exp = PreloadedExperiment();
  const auto& order = exp.lattice().TopoDetailedFirst();
  size_t i = 0;
  for (auto _ : state) {
    auto plan = strategy.FindPlan(order[i], 0);
    benchmark::DoNotOptimize(plan);
    i = (i + 1) % order.size();
  }
}

void BM_Lookup_ESM(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  EsmStrategy esm(&exp.grid(), &exp.cache());
  ProbeLoop(state, esm);
}
BENCHMARK(BM_Lookup_ESM)->Unit(benchmark::kMicrosecond);

void BM_Lookup_MemoESMC(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  MemoizedEsmcStrategy memo(&exp.grid(), &exp.cache(), &exp.size_model());
  ProbeLoop(state, memo);
}
BENCHMARK(BM_Lookup_MemoESMC)->Unit(benchmark::kMicrosecond);

void BM_Lookup_VCM(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  VcmStrategy vcm(&exp.grid(), &exp.cache());
  ProbeLoop(state, vcm);
}
BENCHMARK(BM_Lookup_VCM)->Unit(benchmark::kMicrosecond);

void BM_Lookup_VCMC(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  VcmcStrategy vcmc(&exp.grid(), &exp.cache(), &exp.size_model());
  ProbeLoop(state, vcmc);
}
BENCHMARK(BM_Lookup_VCMC)->Unit(benchmark::kMicrosecond);

// IsComputable only (no plan construction): the O(1) claim for VCM/VCMC.
void BM_IsComputable_VCMC(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  VcmcStrategy vcmc(&exp.grid(), &exp.cache(), &exp.size_model());
  const auto& order = exp.lattice().TopoDetailedFirst();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vcmc.IsComputable(order[i], 0));
    i = (i + 1) % order.size();
  }
}
BENCHMARK(BM_IsComputable_VCMC);

void BM_IsComputable_ESM(benchmark::State& state) {
  Experiment& exp = PreloadedExperiment();
  EsmStrategy esm(&exp.grid(), &exp.cache());
  const auto& order = exp.lattice().TopoDetailedFirst();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(esm.IsComputable(order[i], 0));
    i = (i + 1) % order.size();
  }
}
BENCHMARK(BM_IsComputable_ESM)->Unit(benchmark::kMicrosecond);

// Maintenance cost: inserting and evicting a random aggregated chunk with
// the listener attached, flushing after each (count/cost propagation
// included).
template <typename Strategy>
void InsertEvictLoop(benchmark::State& state) {
  ExperimentConfig config;
  config.data.num_tuples = 50'000;
  config.cache_fraction = 2.0;
  config.preload = true;
  // The experiment's own strategy listens to the same cache; a maintaining
  // one (the default VCMC) would be timed beside the one under test.
  config.strategy = StrategyKind::kNoAgg;
  Experiment exp(config);
  Strategy strategy = [&] {
    if constexpr (std::is_same_v<Strategy, VcmStrategy>) {
      return VcmStrategy(&exp.grid(), &exp.cache());
    } else {
      return VcmcStrategy(&exp.grid(), &exp.cache(), &exp.size_model());
    }
  }();
  exp.cache().AddListener(strategy.listener());

  // A mid-lattice group-by; its chunks flip computability of descendants.
  const GroupById gb = exp.lattice().IdOf(LevelVector{3, 1, 2, 1, 1});
  std::vector<ChunkData> chunks;
  {
    std::vector<ChunkId> ids;
    for (ChunkId c = 0; c < exp.grid().NumChunks(gb); ++c) ids.push_back(c);
    chunks = exp.backend().ExecuteChunkQuery(gb, ids).chunks;
  }
  size_t i = 0;
  for (auto _ : state) {
    ChunkData copy = chunks[i];
    // VCMC's listener only logs an event; the flush propagates it. One
    // flush after both events would find the pair cancelled out.
    exp.cache().Insert(std::move(copy), 1.0, ChunkSource::kBackend);
    strategy.Flush();
    exp.cache().Remove({gb, chunks[i].chunk});
    strategy.Flush();
    i = (i + 1) % chunks.size();
  }
}

void BM_InsertEvict_VCM(benchmark::State& state) {
  InsertEvictLoop<VcmStrategy>(state);
}
BENCHMARK(BM_InsertEvict_VCM)->Unit(benchmark::kMicrosecond);

void BM_InsertEvict_VCMC(benchmark::State& state) {
  InsertEvictLoop<VcmcStrategy>(state);
}
BENCHMARK(BM_InsertEvict_VCMC)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace aac

BENCHMARK_MAIN();
