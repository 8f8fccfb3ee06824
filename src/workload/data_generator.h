#ifndef AAC_WORKLOAD_DATA_GENERATOR_H_
#define AAC_WORKLOAD_DATA_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "schema/schema.h"
#include "storage/tuple.h"

namespace aac {

/// Generated measure values are uniform integers in [1, kMeasureMax].
inline constexpr int64_t kMeasureMax = 1000;

/// Synthetic fact-data parameters, standing in for the OLAP Council's APB-1
/// data generator (see DESIGN.md "Substitutions"). Tuple count and skew are
/// configurable; duplicates collapse in FactTable, so the resulting table
/// can hold slightly fewer tuples than requested.
struct DataGenConfig {
  /// Target number of generated tuples (before duplicate-cell merging).
  int64_t num_tuples = 200'000;

  /// Zipf skew applied to every dimension's leaf values (0 = uniform).
  /// Real sales data clusters on popular products/customers; skew makes
  /// chunk occupancy non-uniform the way APB-1's generator does.
  double zipf_theta = 0.4;

  /// Index of a dimension to generate *densely*, or -1 for fully
  /// independent sampling. APB-1's generator emits a record for (almost)
  /// every month of each product/store/channel combination; with
  /// `dense_dim` set (to the time dimension), each sampled combination of
  /// the other dimensions carries a contiguous run of leaf values covering
  /// 80% of that dimension on average. This is what makes rolling up
  /// the dense dimension collapse tuple counts — the structure behind the
  /// paper's ~10x fastest-vs-slowest aggregation-path spread.
  int dense_dim = -1;

  uint64_t seed = 42;
};

/// Generates base-level cells for `schema` per `config`. Deterministic for a
/// given (schema, config).
std::vector<Cell> GenerateFactData(const Schema& schema,
                                   const DataGenConfig& config);

}  // namespace aac

#endif  // AAC_WORKLOAD_DATA_GENERATOR_H_
