#ifndef AAC_WORKLOAD_EXPERIMENT_H_
#define AAC_WORKLOAD_EXPERIMENT_H_

#include <memory>
#include <string>

#include "backend/backend.h"
#include "backend/fault_injector.h"
#include "cache/benefit.h"
#include "cache/chunk_cache.h"
#include "cache/disk_tier.h"
#include "cache/preloader.h"
#include "cache/warm_tier.h"
#include "cache/replacement.h"
#include "chunks/chunk_size_model.h"
#include "core/query_engine.h"
#include "core/strategy.h"
#include "storage/fact_table.h"
#include "util/sim_clock.h"
#include "workload/apb_schema.h"
#include "workload/cube.h"
#include "workload/data_generator.h"

namespace aac {

/// Which lookup strategy an experiment runs.
enum class StrategyKind { kNoAgg, kEsm, kEsmc, kVcm, kVcmc, kMemoEsmc };
const char* StrategyKindName(StrategyKind kind);

/// Which replacement policy the cache uses.
enum class PolicyKind { kBenefit, kTwoLevel, kLru, kSizeAware };
const char* PolicyKindName(PolicyKind kind);

/// Which canned cube an experiment runs on.
enum class CubeKind { kApb, kWeb };
const char* CubeKindName(CubeKind kind);

/// Everything needed to stand up one experiment configuration.
struct ExperimentConfig {
  CubeKind cube = CubeKind::kApb;
  ApbConfig apb;  // used when cube == kApb
  DataGenConfig data;

  /// Explicit fact tuples (e.g. from LoadFactCsv); when non-empty they are
  /// used instead of the synthetic generator and `data` is ignored.
  std::vector<Cell> cells;

  /// Cache capacity as a fraction of the base table's logical size — the
  /// paper swept 10–25 MB against a 22 MB base table, i.e. 0.45..1.13.
  double cache_fraction = 0.68;

  /// Logical bytes per cached tuple (paper: 20-byte fact tuples).
  int64_t bytes_per_tuple = 20;

  /// Lock shards for the chunk cache. 1 (the default) reproduces the
  /// paper's single global replacement state exactly; parallel runs want
  /// more (e.g. 16) so concurrent queries rarely contend on one shard.
  int cache_shards = 1;

  /// Use exact measured chunk sizes instead of the analytic occupancy
  /// model. Improves cost-based path choices on correlated data. Costs a
  /// count at setup that goes rank by rank down the lattice, reading each
  /// group-by from its smallest kept ancestor rather than from the fact
  /// table, on every core, counting each chunk's cells in a bitmap of one
  /// chunk (at most 21 KB on APB-1) that is freed when the model is built.
  /// The sizes are a setup snapshot that later inserts do not refresh;
  /// they steer costs, never answers. See storage/measured_size_model.h.
  bool measured_sizes = false;

  StrategyKind strategy = StrategyKind::kVcmc;
  PolicyKind policy = PolicyKind::kTwoLevel;
  QueryEngine::Config engine;

  /// Backend fault injection (all-zero rates = healthy backend; any
  /// non-zero rate interposes a FaultInjectingBackend between the engine
  /// and the real server). Preload always runs against the real server —
  /// it models a warm start, not a degraded one.
  FaultConfig faults;

  /// Run the two-level policy's preload rule (group-by with most
  /// descendants that fits) before the workload.
  bool preload = false;

  // --- Tiered cache (DESIGN.md §14). All off by default. ---

  /// Warm-tier budget as a fraction of the HOT cache's byte capacity
  /// (encoded bytes; the codec typically packs 3-10x, so 0.3 of warm RAM
  /// holds roughly as much as the hot tier itself). 0 disables tiering.
  double warm_fraction = 0.0;

  /// Spill file for the optional third tier; empty disables disk spill.
  /// Only meaningful with warm_fraction > 0.
  std::string disk_spill_path;

  /// Live-byte budget for the disk tier (encoded bytes).
  int64_t disk_spill_bytes = 0;
};

/// Owns a fully wired middle tier + backend for one experiment
/// configuration: cube, fact table, size/benefit models, cache, strategy
/// (listener attached), and query engine.
class Experiment {
 public:
  explicit Experiment(const ExperimentConfig& config);

  /// The configuration, except that `cells` is consumed: table() holds them.
  const ExperimentConfig& config() const { return config_; }
  const Cube& cube() const { return *cube_; }
  const Schema& schema() const { return cube_->schema(); }
  const Lattice& lattice() const { return cube_->lattice(); }
  const ChunkGrid& grid() const { return cube_->grid(); }
  const FactTable& table() const { return *table_; }

  /// Mutable access for fact-table updates; pair with
  /// core/invalidation.h's ApplyFactUpdates to keep the cache coherent.
  FactTable* mutable_table() { return table_.get(); }
  const ChunkSizeModel& size_model() const { return *size_model_; }
  const BenefitModel& benefit() const { return *benefit_; }

  /// The real (always-healthy) backend server — ground truth for tests
  /// and benches even when the engine's path injects faults.
  BackendServer& backend() { return *backend_; }

  /// The backend the engine talks to: the fault injector when faults are
  /// configured, otherwise the real server.
  Backend& engine_backend() {
    return fault_injector_ != nullptr
               ? static_cast<Backend&>(*fault_injector_)
               : static_cast<Backend&>(*backend_);
  }

  /// The fault injector, or nullptr when no faults are configured.
  FaultInjectingBackend* fault_injector() { return fault_injector_.get(); }
  ChunkCache& cache() { return *cache_; }

  /// The warm (compressed) tier, or nullptr when warm_fraction == 0. Also
  /// installed as the hot cache's demotion sink and wired into every
  /// engine this experiment vends.
  WarmTier* warm_tier() { return warm_tier_.get(); }

  /// The disk spill tier, or nullptr when not configured.
  DiskTier* disk_tier() { return disk_tier_.get(); }
  LookupStrategy& strategy() { return *strategy_; }
  QueryEngine& engine() { return *engine_; }
  SimClock& sim_clock() { return *clock_; }

  /// Capacity in bytes the cache was built with.
  int64_t cache_bytes() const { return cache_->capacity_bytes(); }

  /// Runs the preload rule; returns what was loaded.
  PreloadResult Preload();

  /// Builds a fresh QueryEngine over the experiment's SHARED wiring (grid,
  /// cache, strategy, backend, benefit model, sim clock, warm tier) with
  /// the same engine config — engine() is built by it too, and it serves
  /// as the EngineFactory of a ConcurrentQueryEngine. Each returned engine
  /// is thread-safe and has its own breaker (if the config asks for one)
  /// and single-flight group. The Experiment must outlive every engine it
  /// vends.
  std::unique_ptr<QueryEngine> NewEngine();

 private:
  ExperimentConfig config_;
  std::unique_ptr<Cube> cube_;
  std::unique_ptr<FactTable> table_;
  std::unique_ptr<ChunkSizeModel> size_model_;
  std::unique_ptr<BenefitModel> benefit_;
  std::unique_ptr<SimClock> clock_;
  std::unique_ptr<BackendServer> backend_;
  std::unique_ptr<FaultInjectingBackend> fault_injector_;
  std::unique_ptr<ReplacementPolicy> policy_;
  std::unique_ptr<ChunkCache> cache_;
  std::unique_ptr<DiskTier> disk_tier_;
  std::unique_ptr<WarmTier> warm_tier_;
  std::unique_ptr<LookupStrategy> strategy_;
  std::unique_ptr<QueryEngine> engine_;
};

}  // namespace aac

#endif  // AAC_WORKLOAD_EXPERIMENT_H_
