// Microbenchmarks (google-benchmark) for the substrate primitives the
// lookup algorithms lean on: chunk-number mapping across levels, lattice
// navigation, fact-table chunk scans, the set-up every stack pays (the fact
// table, the measured chunk-size model and VCMC over an empty cache), the
// chunk codec the warm and disk tiers run and one promote->evict cycle
// through the hot and warm tiers. Not a paper experiment; used to keep the
// primitives' costs in check.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "cache/chunk_cache.h"
#include "cache/replacement.h"
#include "cache/warm_tier.h"
#include "core/vcmc.h"
#include "storage/aggregator.h"
#include "storage/chunk_codec.h"
#include "storage/fact_table.h"
#include "storage/fold_kernel.h"
#include "storage/measured_size_model.h"
#include "util/rng.h"
#include "workload/apb_schema.h"
#include "workload/data_generator.h"
#include "workload/web_schema.h"

namespace aac {
namespace {

const ApbCube& Cube() {
  static const ApbCube* cube = new ApbCube();
  return *cube;
}

void BM_LatticeParents(benchmark::State& state) {
  const Lattice& lattice = Cube().lattice();
  GroupById gb = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lattice.Parents(gb).size());
    gb = (gb + 1) % lattice.num_groupbys();
  }
}
BENCHMARK(BM_LatticeParents);

void BM_LatticeNumPathsToBase(benchmark::State& state) {
  const Lattice& lattice = Cube().lattice();
  GroupById gb = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lattice.NumPathsToBase(gb));
    gb = (gb + 1) % lattice.num_groupbys();
  }
}
BENCHMARK(BM_LatticeNumPathsToBase);

void BM_ChunkCoordsRoundTrip(benchmark::State& state) {
  const ChunkGrid& grid = Cube().grid();
  const GroupById base = Cube().lattice().base_id();
  ChunkId c = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.ChunkIdOf(base, grid.CoordsOf(base, c)));
    c = (c + 1) % grid.NumChunks(base);
  }
}
BENCHMARK(BM_ChunkCoordsRoundTrip);

void BM_ParentChunkNumbersAlloc(benchmark::State& state) {
  const ChunkGrid& grid = Cube().grid();
  const Lattice& lattice = Cube().lattice();
  const GroupById top = lattice.top_id();
  const GroupById mid = lattice.IdOf(LevelVector{3, 1, 2, 0, 0});
  for (auto _ : state) {
    benchmark::DoNotOptimize(grid.ParentChunkNumbers(top, 0, mid).size());
  }
}
BENCHMARK(BM_ParentChunkNumbersAlloc);

void BM_ForEachParentChunk(benchmark::State& state) {
  const ChunkGrid& grid = Cube().grid();
  const Lattice& lattice = Cube().lattice();
  const GroupById top = lattice.top_id();
  const GroupById mid = lattice.IdOf(LevelVector{3, 1, 2, 0, 0});
  for (auto _ : state) {
    int64_t sum = 0;
    grid.ForEachParentChunk(top, 0, mid, [&](ChunkId id) {
      sum += id;
      return true;
    });
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_ForEachParentChunk);

void BM_ChunkOfCell(benchmark::State& state) {
  const ChunkGrid& grid = Cube().grid();
  const GroupById base = Cube().lattice().base_id();
  Rng rng(1);
  int32_t values[5] = {0, 0, 0, 0, 0};
  for (auto _ : state) {
    values[0] = static_cast<int32_t>(rng.Uniform(768));
    values[1] = static_cast<int32_t>(rng.Uniform(240));
    values[2] = static_cast<int32_t>(rng.Uniform(96));
    values[3] = static_cast<int32_t>(rng.Uniform(10));
    values[4] = static_cast<int32_t>(rng.Uniform(2));
    benchmark::DoNotOptimize(grid.ChunkOfCell(base, values));
  }
}
BENCHMARK(BM_ChunkOfCell);

// Arg 0 folds with the scalar kernel, 1 with the vector kernel (which runs
// scalar on a CPU without AVX2): a reading of the fold kernel alone, not a
// gate.
void BM_AggregateBaseChunkToTop(benchmark::State& state) {
  static const FactTable* table = [] {
    DataGenConfig config;
    config.num_tuples = 100'000;
    return new FactTable(&Cube().grid(),
                         GenerateFactData(Cube().schema(), config));
  }();
  const FoldKernelKind kernel =
      state.range(0) == 0 ? FoldKernelKind::kScalar : FoldKernelKind::kVector;
  Aggregator aggregator(&Cube().grid());
  aggregator.set_fold_kernel(kernel);
  const GroupById base = Cube().lattice().base_id();
  const GroupById top = Cube().lattice().top_id();
  ChunkId c = 0;
  int64_t tuples = 0;
  for (auto _ : state) {
    ChunkData out = aggregator.AggregateCells(
        base, table->ChunkSlice(c),
        top, Cube().grid().ChildChunkNumber(base, c, top));
    tuples += static_cast<int64_t>(table->ChunkSlice(c).size());
    benchmark::DoNotOptimize(out.tuple_count());
    c = (c + 1) % table->num_chunks();
  }
  state.SetItemsProcessed(tuples);
  state.SetLabel(FoldKernelName(kernel));
}
BENCHMARK(BM_AggregateBaseChunkToTop)->Arg(0)->Arg(1);

// bench/e2e's data: APB-1, 120k tuples, time-dense, seed 1.
std::vector<Cell> TimeDenseCells() {
  DataGenConfig config;
  config.num_tuples = 120'000;
  config.dense_dim = 2;
  config.seed = 1;
  return GenerateFactData(Cube().schema(), config);
}

const FactTable& TimeDenseTable() {
  static const FactTable* table = new FactTable(&Cube().grid(),
                                                TimeDenseCells());
  return *table;
}

// APB-1 and the web cube at 120k tuples, every dimension drawn
// independently: little collapses when a level rolls up.
const FactTable& UniformTable() {
  static const FactTable* table = [] {
    DataGenConfig config;
    config.num_tuples = 120'000;
    config.seed = 1;
    return new FactTable(&Cube().grid(),
                         GenerateFactData(Cube().schema(), config));
  }();
  return *table;
}

const FactTable& WebTable() {
  static const FactTable* table = [] {
    static const WebCube* web = new WebCube();
    DataGenConfig config;
    config.num_tuples = 120'000;
    config.seed = 1;
    return new FactTable(&web->grid(),
                         GenerateFactData(web->schema(), config));
  }();
  return *table;
}

// The measured model's construction, which every set-up pays. Real time,
// since the constructor counts on every core. Reports the group-bys kept as
// counting sources and the source cells read.
void BM_MeasuredSizeModel(benchmark::State& state,
                          const FactTable& (*data)()) {
  const FactTable& table = data();
  const ChunkGrid& grid = table.grid();
  MeasuredChunkSizeModel::CountStats stats;
  for (auto _ : state) {
    const MeasuredChunkSizeModel model(&grid, &table);
    benchmark::DoNotOptimize(
        model.ExpectedGroupByTuples(grid.lattice().top_id()));
    stats = model.count_stats();
  }
  state.counters["kept_groupbys"] = static_cast<double>(stats.kept_groupbys);
  state.counters["visits"] = static_cast<double>(stats.visits);
}
BENCHMARK_CAPTURE(BM_MeasuredSizeModel, time_dense, &TimeDenseTable)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MeasuredSizeModel, uniform, &UniformTable)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MeasuredSizeModel, web, &WebTable)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The fact table's construction from bench/e2e's generated cells; the copy
// the constructor consumes is made outside the timing.
void BM_FactTableBuild(benchmark::State& state) {
  static const std::vector<Cell>* cells =
      new std::vector<Cell>(TimeDenseCells());
  for (auto _ : state) {
    state.PauseTiming();
    std::vector<Cell> copy = *cells;
    state.ResumeTiming();
    const FactTable table(&Cube().grid(), std::move(copy));
    benchmark::DoNotOptimize(table.tuples().data());
  }
}
BENCHMARK(BM_FactTableBuild)->Unit(benchmark::kMillisecond);

// VCMC's construction over an empty cache and bench/e2e's measured sizes,
// as every set-up builds it: its chunk link tables, then the from-scratch
// walk.
void BM_VcmcConstructEmpty(benchmark::State& state) {
  static const MeasuredChunkSizeModel* sizes =
      new MeasuredChunkSizeModel(&Cube().grid(), &TimeDenseTable());
  TwoLevelPolicy policy;
  const ChunkCache cache(int64_t{1} << 30, 20, &policy, 16);
  for (auto _ : state) {
    const VcmcStrategy vcmc(&Cube().grid(), &cache, sizes);
    benchmark::DoNotOptimize(vcmc.CostOf(Cube().lattice().top_id(), 0));
  }
}
BENCHMARK(BM_VcmcConstructEmpty)->Unit(benchmark::kMicrosecond);

// Every backend chunk of one fixed group-by over bench/e2e's data: level
// {4,1,1,0,0}, 32 chunks of ~242 cells, the size of a spill chunk.
const std::vector<ChunkData>& CodecChunks() {
  static const std::vector<ChunkData>* chunks = [] {
    BackendServer backend(&TimeDenseTable(), BackendCostModel(),
                          /*clock=*/nullptr);
    const GroupById gb = Cube().lattice().IdOf(LevelVector{4, 1, 1, 0, 0});
    std::vector<ChunkId> ids(
        static_cast<size_t>(Cube().grid().NumChunks(gb)));
    for (size_t c = 0; c < ids.size(); ++c) ids[c] = static_cast<ChunkId>(c);
    return new std::vector<ChunkData>(
        backend.ExecuteChunkQuery(gb, ids).chunks);
  }();
  return *chunks;
}

int64_t CodecCells() {
  int64_t cells = 0;
  for (const ChunkData& data : CodecChunks()) cells += data.tuple_count();
  return cells;
}

// Time per encoded cell, reported as per_cell.
void BM_ChunkCodecEncode(benchmark::State& state) {
  const int num_dims = Cube().schema().num_dims();
  std::vector<uint8_t> blob;
  for (auto _ : state) {
    for (const ChunkData& data : CodecChunks()) {
      EncodeChunk(num_dims, data, &blob);
      benchmark::DoNotOptimize(blob.data());
      benchmark::ClobberMemory();
    }
  }
  state.counters["per_cell"] = benchmark::Counter(
      static_cast<double>(CodecCells()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChunkCodecEncode);

// Time per decoded cell, reported as per_cell.
void BM_ChunkCodecDecode(benchmark::State& state) {
  const int num_dims = Cube().schema().num_dims();
  std::vector<std::vector<uint8_t>> blobs(CodecChunks().size());
  for (size_t i = 0; i < blobs.size(); ++i) {
    EncodeChunk(num_dims, CodecChunks()[i], &blobs[i]);
  }
  ChunkData out;
  for (auto _ : state) {
    for (const std::vector<uint8_t>& blob : blobs) {
      const bool ok = DecodeChunk(num_dims, blob.data(), blob.size(), &out);
      benchmark::DoNotOptimize(ok);
      benchmark::DoNotOptimize(out.cells.data());
    }
  }
  state.counters["per_cell"] = benchmark::Counter(
      static_cast<double>(CodecCells()),
      benchmark::Counter::kIsIterationInvariantRate |
          benchmark::Counter::kInvert);
}
BENCHMARK(BM_ChunkCodecDecode);

// One promote->evict cycle over the codec chunks, in ns per cycle: a
// one-shard hot cache that holds one chunk at a time, over a warm tier
// that holds them all. Each cycle probes the next chunk from warm RAM (a
// decode) and promotes it with its blob, which demotes the chunk promoted
// the cycle before; that demotion re-admits its blob instead of encoding.
void BM_WarmTierRoundTrip(benchmark::State& state) {
  const std::vector<ChunkData>& chunks = CodecChunks();
  constexpr int64_t kTupleBytes = 20;
  int64_t largest = 0;
  for (const ChunkData& data : chunks) {
    largest = std::max(largest, data.LogicalBytes(kTupleBytes));
  }
  const BenefitPolicy policy;
  ChunkCache hot(largest, kTupleBytes, &policy);
  WarmTier::Config config;
  config.capacity_bytes = int64_t{64} << 20;
  config.num_dims = Cube().schema().num_dims();
  WarmTier warm(config);
  hot.set_demotion_sink(&warm);
  for (const ChunkData& data : chunks) {
    hot.Insert(data, 100.0, ChunkSource::kBackend);
  }
  const CacheStats hot_before = hot.stats();
  const WarmTierStats warm_before = warm.stats();
  size_t next = 0;
  for (auto _ : state) {
    const ChunkData& data = chunks[next];
    next = next + 1 == chunks.size() ? 0 : next + 1;
    WarmProbeResult probe;
    if (!warm.Probe({data.gb, data.chunk}, nullptr, &probe)) {
      state.SkipWithError("the chunk left the warm tier");
      break;
    }
    const bool promoted =
        hot.Insert(std::move(probe.data), probe.info.benefit,
                   probe.info.source, std::move(probe.blob));
    benchmark::DoNotOptimize(promoted);
  }
  const auto cycles = static_cast<double>(state.iterations());
  const WarmTierStats warm_after = warm.stats();
  state.counters["demotions_per_cycle"] =
      static_cast<double>(hot.stats().demotions - hot_before.demotions) /
      cycles;
  state.counters["reused_per_cycle"] =
      static_cast<double>(warm_after.reused_blobs - warm_before.reused_blobs) /
      cycles;
}
BENCHMARK(BM_WarmTierRoundTrip);

}  // namespace
}  // namespace aac

BENCHMARK_MAIN();
