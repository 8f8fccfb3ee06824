// Unit experiment "Aggregation Cost Optimization" (paper Section 7.1): how
// much do aggregation costs differ across lattice paths? The paper found
// the slowest path is on average ~10x the fastest, larger for highly
// aggregated group-bys — the case for cost-based lookup (ESMC/VCMC).

#include <cmath>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench/support.h"
#include "core/vcmc.h"
#include "util/table_printer.h"

namespace aac {
namespace {

// Max-cost counterpart of the min-cost DP: the most expensive way to compute
// each chunk from the cache, in topological order.
std::vector<double> MaxCosts(Experiment& exp) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const ChunkGrid& grid = exp.grid();
  const Lattice& lattice = exp.lattice();
  std::vector<double> costs(
      static_cast<size_t>(grid.TotalChunksAllGroupBys()), -kInf);
  for (GroupById gb : lattice.TopoDetailedFirst()) {
    for (ChunkId chunk = 0; chunk < grid.NumChunks(gb); ++chunk) {
      const size_t idx = static_cast<size_t>(grid.FlatIndex(gb, chunk));
      if (exp.cache().Contains({gb, chunk})) {
        // Cached: may still be *computable* more expensively, but the paper
        // compares computation paths; a cached chunk costs 0 to obtain.
        costs[idx] = 0.0;
        continue;
      }
      for (GroupById parent : lattice.Parents(gb)) {
        double sum = 0.0;
        const bool complete = grid.ForEachParentChunk(
            gb, chunk, parent, [&](ChunkId pc) {
              const double c =
                  costs[static_cast<size_t>(grid.FlatIndex(parent, pc))];
              if (c == -kInf) return false;
              sum += c + exp.size_model().ExpectedChunkTuples(parent, pc);
              return true;
            });
        if (complete && sum > costs[idx]) costs[idx] = sum;
      }
    }
  }
  return costs;
}

void Run() {
  ExperimentConfig config = bench::BaseConfig();
  config.cache_fraction = 1.3;
  config.measured_sizes = true;  // exact sizes: real collapse along paths
  config.strategy = StrategyKind::kVcmc;
  config.preload = true;  // preloads the base group-by: all paths exist
  Experiment exp(config);
  bench::PrintBanner("Unit experiment: aggregation cost optimization",
                     "Section 7.1, 'Aggregation Cost Optimization' (~10x)",
                     exp);

  auto& vcmc = static_cast<VcmcStrategy&>(exp.strategy());
  const std::vector<double> max_costs = MaxCosts(exp);

  // Ratio of slowest to fastest path per group-by (chunk 0), grouped by the
  // total aggregation depth (sum of level gaps from the base).
  const Lattice& lattice = exp.lattice();
  std::vector<StatAccumulator> by_depth(32);
  StatAccumulator overall;
  double log_sum = 0;
  int64_t n = 0;
  for (GroupById gb = 0; gb < lattice.num_groupbys(); ++gb) {
    if (gb == lattice.base_id()) continue;
    const double fastest = vcmc.CostOf(gb, 0);
    const double slowest =
        max_costs[static_cast<size_t>(exp.grid().FlatIndex(gb, 0))];
    if (!(fastest > 0) || !(slowest > 0)) continue;
    const double ratio = slowest / fastest;
    const int depth =
        lattice.LevelSum(lattice.base_id()) - lattice.LevelSum(gb);
    by_depth[static_cast<size_t>(depth)].Add(ratio);
    overall.Add(ratio);
    log_sum += std::log(ratio);
    ++n;
  }

  TablePrinter table({"aggregation depth (levels above base)", "group-bys",
                      "avg slow/fast", "max slow/fast"});
  for (size_t depth = 1; depth < by_depth.size(); ++depth) {
    if (by_depth[depth].count() == 0) continue;
    table.AddRow({std::to_string(depth),
                  std::to_string(by_depth[depth].count()),
                  TablePrinter::Fmt(by_depth[depth].mean(), 2),
                  TablePrinter::Fmt(by_depth[depth].max(), 2)});
  }
  table.Print();
  std::printf(
      "\noverall slowest/fastest path cost: avg %.1fx, geo-mean %.1fx, max "
      "%.1fx (paper: avg factor ~10, larger for aggregated group-bys)\n\n",
      overall.mean(), std::exp(log_sum / static_cast<double>(n)),
      overall.max());
}

}  // namespace
}  // namespace aac

int main() {
  aac::Run();
  return 0;
}
