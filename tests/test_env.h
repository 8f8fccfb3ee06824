#ifndef AAC_TESTS_TEST_ENV_H_
#define AAC_TESTS_TEST_ENV_H_

#include <memory>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "cache/benefit.h"
#include "cache/chunk_cache.h"
#include "cache/replacement.h"
#include "chunks/chunk_size_model.h"
#include "storage/fact_table.h"
#include "test_util.h"
#include "util/deadline.h"
#include "util/sim_clock.h"

namespace aac {

// Full middle-tier test environment around a TestCube: fact table, size and
// benefit models, simulated backend and a cache.
struct TestEnv {
  TestCube cube;
  std::vector<Cell> base_cells;
  std::unique_ptr<FactTable> table;
  std::unique_ptr<ChunkSizeModel> size_model;
  std::unique_ptr<BenefitModel> benefit;
  // Heap-allocated: BackendServer keeps a pointer, and TestEnv is movable.
  std::unique_ptr<SimClock> clock;
  std::unique_ptr<BackendServer> backend;
  std::unique_ptr<ReplacementPolicy> policy;
  std::unique_ptr<ChunkCache> cache;

  const Lattice& lattice() const { return *cube.lattice; }
  const ChunkGrid& grid() const { return *cube.grid; }
  const Schema& schema() const { return *cube.schema; }
};

inline TestEnv MakeTestEnv(TestCube cube, double density, uint64_t seed,
                           int64_t capacity_bytes,
                           bool two_level_policy = false,
                           int64_t bytes_per_tuple = 10,
                           int num_shards = 1) {
  TestEnv env;
  env.cube = std::move(cube);
  env.base_cells = RandomBaseCells(env.cube, density, seed);
  env.table =
      std::make_unique<FactTable>(env.cube.grid.get(), env.base_cells);
  env.size_model = std::make_unique<ChunkSizeModel>(
      env.cube.grid.get(), env.table->num_tuples(), bytes_per_tuple);
  env.benefit = std::make_unique<BenefitModel>(env.size_model.get());
  env.clock = std::make_unique<SimClock>();
  env.backend = std::make_unique<BackendServer>(
      env.table.get(), BackendCostModel(), env.clock.get());
  if (two_level_policy) {
    env.policy = std::make_unique<TwoLevelPolicy>();
  } else {
    env.policy = std::make_unique<BenefitPolicy>();
  }
  env.cache = std::make_unique<ChunkCache>(capacity_bytes, bytes_per_tuple,
                                           env.policy.get(), num_shards);
  return env;
}

// Cancels its token during the Nth ExecuteChunkQuery call, then still
// returns the data — models a client disconnecting while the backend round
// trip is in flight.
class CancelDuringFetchBackend : public Backend {
 public:
  CancelDuringFetchBackend(Backend* wrapped, CancelToken* token,
                           int cancel_on_call)
      : wrapped_(wrapped), token_(token), cancel_on_call_(cancel_on_call) {}

  const BackendCostModel& cost_model() const override {
    return wrapped_->cost_model();
  }
  BackendResult ExecuteChunkQuery(
      GroupById gb, const std::vector<ChunkId>& chunks) override {
    if (++calls_ == cancel_on_call_) token_->Cancel();
    return wrapped_->ExecuteChunkQuery(gb, chunks);
  }
  int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const override {
    return wrapped_->EstimateQueryCostNanos(gb, chunks);
  }
  int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                         ChunkId chunk) const override {
    return wrapped_->EstimateMarginalChunkCostNanos(gb, chunk);
  }

 private:
  Backend* wrapped_;
  CancelToken* token_;
  int cancel_on_call_;
  int calls_ = 0;
};

// Inserts chunk (gb, c) into the cache, fetching its true contents from the
// backend (no eviction expected: call with ample capacity).
inline void CacheChunkFromBackend(TestEnv& env, GroupById gb, ChunkId chunk) {
  std::vector<ChunkData> data = env.backend->ExecuteChunkQuery(gb, {chunk}).chunks;
  env.cache->Insert(std::move(data[0]),
                    env.benefit->BackendChunkBenefit(gb, chunk),
                    ChunkSource::kBackend);
}

// Independent computability oracle: fixpoint of "cached, or some lattice
// parent has all covering chunks computable", evaluated detailed-first.
inline std::vector<bool> ComputabilityOracle(const TestEnv& env) {
  const Lattice& lat = env.lattice();
  const ChunkGrid& grid = env.grid();
  // Flat index: gb-major offsets.
  std::vector<int64_t> offsets(static_cast<size_t>(lat.num_groupbys()) + 1, 0);
  for (GroupById gb = 0; gb < lat.num_groupbys(); ++gb) {
    offsets[static_cast<size_t>(gb) + 1] =
        offsets[static_cast<size_t>(gb)] + grid.NumChunks(gb);
  }
  std::vector<bool> computable(static_cast<size_t>(offsets.back()), false);
  auto idx = [&](GroupById gb, ChunkId c) {
    return static_cast<size_t>(offsets[static_cast<size_t>(gb)] + c);
  };
  for (GroupById gb : lat.TopoDetailedFirst()) {
    for (ChunkId c = 0; c < grid.NumChunks(gb); ++c) {
      if (env.cache->Contains({gb, c})) {
        computable[idx(gb, c)] = true;
        continue;
      }
      for (GroupById parent : lat.Parents(gb)) {
        bool all = true;
        for (ChunkId pc : grid.ParentChunkNumbers(gb, c, parent)) {
          if (!computable[idx(parent, pc)]) {
            all = false;
            break;
          }
        }
        if (all) {
          computable[idx(gb, c)] = true;
          break;
        }
      }
    }
  }
  return computable;
}

// Flat index helper matching ComputabilityOracle's layout.
inline size_t OracleIndex(const TestEnv& env, GroupById gb, ChunkId c) {
  int64_t offset = 0;
  for (GroupById g = 0; g < gb; ++g) offset += env.grid().NumChunks(g);
  return static_cast<size_t>(offset + c);
}

}  // namespace aac

#endif  // AAC_TESTS_TEST_ENV_H_
