#include <gtest/gtest.h>

#include "workload/experiment.h"
#include "workload/workload_runner.h"

namespace aac {
namespace {

ExperimentConfig SmallConfig() {
  ExperimentConfig config;
  config.data.num_tuples = 20'000;
  config.cache_fraction = 0.5;
  return config;
}

TEST(Experiment, BuildsAllComponents) {
  Experiment exp(SmallConfig());
  EXPECT_EQ(exp.lattice().num_groupbys(), 336);
  EXPECT_GT(exp.table().num_tuples(), 0);
  EXPECT_GT(exp.cache_bytes(), 0);
  EXPECT_EQ(exp.strategy().name(), "VCMC");
}

TEST(Experiment, StrategySelection) {
  for (StrategyKind kind :
       {StrategyKind::kNoAgg, StrategyKind::kEsm, StrategyKind::kVcm,
        StrategyKind::kVcmc, StrategyKind::kMemoEsmc}) {
    ExperimentConfig config = SmallConfig();
    config.strategy = kind;
    Experiment exp(config);
    EXPECT_EQ(exp.strategy().name(), StrategyKindName(kind));
  }
}

TEST(Experiment, PreloadLoadsChosenGroupBy) {
  ExperimentConfig config = SmallConfig();
  config.preload = false;
  Experiment exp(config);
  PreloadResult result = exp.Preload();
  EXPECT_GE(result.gb, 0);
  EXPECT_GT(result.chunks_loaded, 0);
  // The preloaded group-by's chunks are all cached.
  for (ChunkId c = 0; c < exp.grid().NumChunks(result.gb); ++c) {
    EXPECT_TRUE(exp.cache().Contains({result.gb, c}));
  }
}

TEST(WorkloadRunner, AccumulatesTotals) {
  ExperimentConfig config = SmallConfig();
  config.preload = true;
  Experiment exp(config);
  QueryStreamConfig stream_config;
  stream_config.num_queries = 25;
  QueryStreamGenerator gen(&exp.schema(), stream_config);
  std::vector<QueryStats> per_query;
  WorkloadTotals totals = RunWorkload(exp.engine(), gen.Generate(), &per_query);
  EXPECT_EQ(totals.queries, 25);
  EXPECT_EQ(per_query.size(), 25u);
  EXPECT_GT(totals.chunks_requested, 0);
  EXPECT_EQ(totals.chunks_requested,
            totals.chunks_direct + totals.chunks_aggregated +
                totals.chunks_backend);
  EXPECT_GE(totals.complete_hits, 0);
  EXPECT_LE(totals.complete_hits, totals.queries);
  EXPECT_GT(totals.TotalMs(), 0.0);
}

TEST(WorkloadRunner, ActiveCacheBeatsNoAggregationOnHits) {
  // Same stream, same cache budget: the aggregate-aware engine must have at
  // least the complete-hit ratio of the no-aggregation baseline.
  QueryStreamConfig stream_config;
  stream_config.num_queries = 40;

  ExperimentConfig active = SmallConfig();
  active.preload = true;
  Experiment active_exp(active);
  QueryStreamGenerator gen_a(&active_exp.schema(), stream_config);
  WorkloadTotals active_totals =
      RunWorkload(active_exp.engine(), gen_a.Generate());

  ExperimentConfig no_agg = SmallConfig();
  no_agg.strategy = StrategyKind::kNoAgg;
  no_agg.policy = PolicyKind::kBenefit;
  no_agg.preload = true;
  Experiment no_agg_exp(no_agg);
  QueryStreamGenerator gen_b(&no_agg_exp.schema(), stream_config);
  WorkloadTotals no_agg_totals =
      RunWorkload(no_agg_exp.engine(), gen_b.Generate());

  EXPECT_GE(active_totals.complete_hits, no_agg_totals.complete_hits);
  EXPECT_GT(active_totals.complete_hits, 0);
}

TEST(Experiment, ExplicitCellsReplaceGenerator) {
  ExperimentConfig config = SmallConfig();
  Cell cell;
  cell.values = {100, 30, 12, 3, 1, 0, 0, 0};
  InitCellAggregates(cell, 42.0);
  config.cells = {cell};
  Experiment exp(config);
  EXPECT_EQ(exp.table().num_tuples(), 1);
  EXPECT_DOUBLE_EQ(exp.table().tuples()[0].measure, 42.0);
  // The rows moved into the table; the experiment keeps no second copy.
  EXPECT_TRUE(exp.config().cells.empty());
}

TEST(WorkloadRunner, CompleteHitPercentMath) {
  WorkloadTotals totals;
  totals.queries = 50;
  totals.complete_hits = 20;
  EXPECT_DOUBLE_EQ(totals.CompleteHitPercent(), 40.0);
  totals.lookup_ms = 10;
  totals.backend_ms = 40;
  EXPECT_DOUBLE_EQ(totals.AvgQueryMs(), 1.0);
}

}  // namespace
}  // namespace aac
