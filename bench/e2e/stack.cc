#include "stack.h"

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "core/admission.h"
#include "core/query_engine.h"

namespace aac::e2e {
namespace {

class TracedBackend : public Backend {
 public:
  TracedBackend(Backend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  const BackendCostModel& cost_model() const override {
    return inner_->cost_model();
  }
  BackendResult ExecuteChunkQuery(GroupById gb,
                                  const std::vector<ChunkId>& chunks) override {
    Tracer::Span span(*tracer_, SpanKind::kBackend);
    return inner_->ExecuteChunkQuery(gb, chunks);
  }
  int64_t EstimateQueryCostNanos(
      GroupById gb, const std::vector<ChunkId>& chunks) const override {
    return inner_->EstimateQueryCostNanos(gb, chunks);
  }
  int64_t EstimateMarginalChunkCostNanos(GroupById gb,
                                         ChunkId chunk) const override {
    return inner_->EstimateMarginalChunkCostNanos(gb, chunk);
  }

 private:
  Backend* inner_;
  Tracer* tracer_;
};

class TracedStrategy : public LookupStrategy {
 public:
  TracedStrategy(LookupStrategy* inner, Tracer* tracer,
                 std::atomic<int64_t>* calls)
      : inner_(inner), tracer_(tracer), calls_(calls) {}

  std::string name() const override { return inner_->name(); }
  bool IsComputable(GroupById gb, ChunkId chunk) override {
    return inner_->IsComputable(gb, chunk);
  }
  std::unique_ptr<PlanNode> FindPlan(GroupById gb, ChunkId chunk) override {
    calls_->fetch_add(1, std::memory_order_relaxed);
    Tracer::Span span(*tracer_, SpanKind::kLookup);
    return inner_->FindPlan(gb, chunk);
  }
  int64_t SpaceOverheadBytes() const override {
    return inner_->SpaceOverheadBytes();
  }

 private:
  LookupStrategy* inner_;
  Tracer* tracer_;
  std::atomic<int64_t>* calls_;
};

class TracedListener : public CacheListener {
 public:
  TracedListener(CacheListener* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void OnInsert(const CacheKey& key, int64_t tuples) override {
    Tracer::Span span(*tracer_, SpanKind::kMaintain);
    inner_->OnInsert(key, tuples);
  }
  void OnUpdate(const CacheKey& key, int64_t tuples) override {
    Tracer::Span span(*tracer_, SpanKind::kMaintain);
    inner_->OnUpdate(key, tuples);
  }
  void OnEvict(const CacheKey& key) override {
    Tracer::Span span(*tracer_, SpanKind::kMaintain);
    inner_->OnEvict(key);
  }

 private:
  CacheListener* inner_;
  Tracer* tracer_;
};

class TracedSink : public DemotionSink {
 public:
  TracedSink(DemotionSink* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  void OnDemote(const CacheEntryInfo& info, ChunkData&& data) override {
    Tracer::Span span(*tracer_, SpanKind::kDemote);
    inner_->OnDemote(info, std::move(data));
  }
  void OnErase(const CacheKey& key) override { inner_->OnErase(key); }

 private:
  DemotionSink* inner_;
  Tracer* tracer_;
};

}  // namespace

std::unique_ptr<Stack> BuildStack(const StackConfig& config, Tracer* tracer) {
  auto stack = std::make_unique<Stack>();

  ExperimentConfig ec;
  ec.data.num_tuples = config.tuples;
  ec.data.seed = config.seed;
  ec.data.dense_dim = 2;  // time: APB-1 emits per-month records
  ec.measured_sizes = true;
  ec.cache_shards = 16;
  ec.strategy = StrategyKind::kNoAgg;
  ec.policy = PolicyKind::kTwoLevel;
  ec.cache_fraction = kHotShare * config.budget_fraction;
  ec.warm_fraction = kWarmShare / kHotShare;
  if (config.disk_bytes > 0) {
    ec.disk_spill_path = config.spill_path;
    ec.disk_spill_bytes = config.disk_bytes;
  }
  stack->exp = std::make_unique<Experiment>(ec);
  Experiment& exp = *stack->exp;
  stack->budget_bytes = static_cast<int64_t>(
      config.budget_fraction *
      static_cast<double>(exp.table().num_tuples() * ec.bytes_per_tuple));

  ResultCache::Config rc;
  rc.capacity_bytes = static_cast<int64_t>(
      kResultShare * static_cast<double>(stack->budget_bytes));
  rc.bytes_per_tuple = ec.bytes_per_tuple;
  // Tiles are small; one wide answer must never displace them.
  rc.max_entry_fraction = 0.1;
  stack->results = std::make_unique<ResultCache>(rc);
  stack->vcmc = std::make_unique<VcmcStrategy>(&exp.grid(), &exp.cache(),
                                               &exp.size_model());

  LookupStrategy* strategy = stack->vcmc.get();
  CacheListener* maintain = stack->vcmc.get();
  Backend* backend = &exp.backend();
  if (tracer != nullptr) {
    stack->traced_strategy = std::make_unique<TracedStrategy>(
        strategy, tracer, &stack->find_plan_calls);
    stack->traced_maintain = std::make_unique<TracedListener>(maintain, tracer);
    stack->traced_backend = std::make_unique<TracedBackend>(backend, tracer);
    stack->traced_demote =
        std::make_unique<TracedSink>(exp.warm_tier(), tracer);
    strategy = stack->traced_strategy.get();
    maintain = stack->traced_maintain.get();
    backend = stack->traced_backend.get();
    exp.cache().set_demotion_sink(stack->traced_demote.get());
  }
  exp.cache().AddListener(maintain);
  exp.cache().AddListener(stack->results.get());

  stack->pool = std::make_unique<ConcurrentQueryEngine>(
      [&exp, strategy, backend] {
        return std::make_unique<QueryEngine>(
            &exp.grid(), &exp.cache(), strategy, backend, &exp.benefit(),
            &exp.sim_clock(), exp.config().engine);
      });
  AdmissionConfig admission;
  admission.max_concurrent = 4;
  admission.max_concurrent_batch = 1;
  stack->pool->ConfigureAdmission(admission);
  const int hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  stack->pool->ConfigureMorsels(std::max(0, hardware_threads - 1));
  stack->pool->set_result_cache(stack->results.get());
  stack->pool->set_warm_tier(exp.warm_tier());
  return stack;
}

}  // namespace aac::e2e
