#include "workload/experiment.h"

#include "core/esm.h"
#include "core/esmc.h"
#include "core/memo_esmc.h"
#include "core/no_aggregation.h"
#include "core/vcm.h"
#include "core/vcmc.h"
#include "workload/web_schema.h"
#include "storage/measured_size_model.h"
#include "util/check.h"

namespace aac {

const char* StrategyKindName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kNoAgg:
      return "NoAgg";
    case StrategyKind::kEsm:
      return "ESM";
    case StrategyKind::kEsmc:
      return "ESMC";
    case StrategyKind::kVcm:
      return "VCM";
    case StrategyKind::kVcmc:
      return "VCMC";
    case StrategyKind::kMemoEsmc:
      return "MemoESMC";
  }
  return "?";
}

const char* PolicyKindName(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::kBenefit:
      return "benefit";
    case PolicyKind::kTwoLevel:
      return "two-level";
    case PolicyKind::kLru:
      return "lru";
    case PolicyKind::kSizeAware:
      return "size-aware";
  }
  return "?";
}

const char* CubeKindName(CubeKind kind) {
  switch (kind) {
    case CubeKind::kApb:
      return "APB-1";
    case CubeKind::kWeb:
      return "web-analytics";
  }
  return "?";
}

Experiment::Experiment(const ExperimentConfig& config) : config_(config) {
  switch (config.cube) {
    case CubeKind::kApb:
      cube_ = std::make_unique<ApbCube>(config.apb);
      break;
    case CubeKind::kWeb:
      cube_ = std::make_unique<WebCube>();
      break;
  }
  table_ = std::make_unique<FactTable>(
      &cube_->grid(),
      config_.cells.empty() ? GenerateFactData(cube_->schema(), config.data)
                            : std::move(config_.cells));
  if (config.measured_sizes) {
    size_model_ = std::make_unique<MeasuredChunkSizeModel>(
        &cube_->grid(), table_.get(), config.bytes_per_tuple);
  } else {
    size_model_ = std::make_unique<ChunkSizeModel>(
        &cube_->grid(), table_->num_tuples(), config.bytes_per_tuple);
  }
  // Backend-fetch overhead in scan-tuple equivalents, so backend chunks get
  // the fetch premium the paper's benefit metric describes (Section 6.1).
  const BackendCostModel cost_model;
  const double overhead_tuples =
      static_cast<double>(cost_model.fixed_query_overhead_ns) /
      static_cast<double>(cost_model.per_tuple_scan_ns);
  benefit_ = std::make_unique<BenefitModel>(size_model_.get(), overhead_tuples);
  clock_ = std::make_unique<SimClock>();
  backend_ = std::make_unique<BackendServer>(table_.get(), cost_model,
                                             clock_.get());
  if (config.faults.any()) {
    fault_injector_ = std::make_unique<FaultInjectingBackend>(
        backend_.get(), config.faults, clock_.get());
  }

  switch (config.policy) {
    case PolicyKind::kTwoLevel:
      policy_ = std::make_unique<TwoLevelPolicy>();
      break;
    case PolicyKind::kBenefit:
      policy_ = std::make_unique<BenefitPolicy>();
      break;
    case PolicyKind::kLru:
      policy_ = std::make_unique<LruPolicy>();
      break;
    case PolicyKind::kSizeAware:
      policy_ = std::make_unique<SizeAwarePolicy>();
      break;
  }
  const auto capacity = static_cast<int64_t>(
      config.cache_fraction *
      static_cast<double>(table_->num_tuples() * config.bytes_per_tuple));
  cache_ = std::make_unique<ChunkCache>(capacity, config.bytes_per_tuple,
                                        policy_.get(), config.cache_shards);

  // Tiered cache: warm (compressed) tier as the hot cache's demotion sink,
  // optionally backed by a disk spill tier (DESIGN.md §14).
  if (config.warm_fraction > 0.0) {
    if (!config.disk_spill_path.empty() && config.disk_spill_bytes > 0) {
      DiskTier::Config disk_config;
      disk_config.path = config.disk_spill_path;
      disk_config.capacity_bytes = config.disk_spill_bytes;
      disk_tier_ = std::make_unique<DiskTier>(disk_config);
      AAC_CHECK(disk_tier_->Open());
    }
    WarmTier::Config warm_config;
    warm_config.capacity_bytes = static_cast<int64_t>(
        config.warm_fraction * static_cast<double>(capacity));
    warm_config.num_dims = cube_->schema().num_dims();
    warm_config.disk = disk_tier_.get();
    warm_tier_ = std::make_unique<WarmTier>(warm_config);
    cache_->set_demotion_sink(warm_tier_.get());
  }

  switch (config.strategy) {
    case StrategyKind::kNoAgg:
      strategy_ = std::make_unique<NoAggregationStrategy>(cache_.get());
      break;
    case StrategyKind::kEsm:
      strategy_ = std::make_unique<EsmStrategy>(&cube_->grid(), cache_.get());
      break;
    case StrategyKind::kEsmc:
      strategy_ = std::make_unique<EsmcStrategy>(
          &cube_->grid(), cache_.get(), size_model_.get(),
          /*visit_budget=*/20'000'000);
      break;
    case StrategyKind::kVcm:
      strategy_ = std::make_unique<VcmStrategy>(&cube_->grid(), cache_.get());
      break;
    case StrategyKind::kVcmc:
      strategy_ = std::make_unique<VcmcStrategy>(&cube_->grid(), cache_.get(),
                                                 size_model_.get());
      break;
    case StrategyKind::kMemoEsmc:
      strategy_ = std::make_unique<MemoizedEsmcStrategy>(
          &cube_->grid(), cache_.get(), size_model_.get());
      break;
  }
  if (strategy_->listener() != nullptr) {
    cache_->AddListener(strategy_->listener());
  }
  engine_ = NewEngine();
  if (config.preload) Preload();
}

PreloadResult Experiment::Preload() {
  Preloader preloader(size_model_.get(), benefit_.get());
  return preloader.Preload(cache_.get(), backend_.get());
}

std::unique_ptr<QueryEngine> Experiment::NewEngine() {
  auto engine = std::make_unique<QueryEngine>(
      &cube_->grid(), cache_.get(), strategy_.get(), &engine_backend(),
      benefit_.get(), clock_.get(), config_.engine);
  engine->Attach({.warm_tier = warm_tier_.get()});
  return engine;
}

}  // namespace aac
