#include "workload/data_generator.h"

#include <algorithm>
#include <memory>

#include "util/check.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace aac {

std::vector<Cell> GenerateFactData(const Schema& schema,
                                   const DataGenConfig& config) {
  AAC_CHECK_GE(config.num_tuples, 0);
  Rng rng(config.seed);
  const int nd = schema.num_dims();
  const LevelVector& base = schema.base_level();

  std::vector<std::unique_ptr<ZipfSampler>> samplers;
  samplers.reserve(static_cast<size_t>(nd));
  for (int d = 0; d < nd; ++d) {
    samplers.push_back(std::make_unique<ZipfSampler>(
        schema.dimension(d).cardinality(base[d]), config.zipf_theta));
  }

  std::vector<Cell> cells;
  cells.reserve(static_cast<size_t>(config.num_tuples));

  if (config.dense_dim < 0) {
    for (int64_t i = 0; i < config.num_tuples; ++i) {
      Cell c;
      for (int d = 0; d < nd; ++d) {
        c.values[static_cast<size_t>(d)] = static_cast<int32_t>(
            samplers[static_cast<size_t>(d)]->Sample(rng));
      }
      InitCellAggregates(c, static_cast<double>(
                                rng.UniformInt(1, kMeasureMax)));
      cells.push_back(c);
    }
    return cells;
  }

  // Dense-dimension mode: sample a combination of the other dimensions,
  // then emit one tuple per value of a contiguous run along the dense
  // dimension (APB-1's per-month records).
  const int dd = config.dense_dim;
  AAC_CHECK_LT(dd, nd);
  const auto dense_card =
      static_cast<int32_t>(schema.dimension(dd).cardinality(base[dd]));
  while (static_cast<int64_t>(cells.size()) < config.num_tuples) {
    Cell proto;
    for (int d = 0; d < nd; ++d) {
      if (d == dd) continue;
      proto.values[static_cast<size_t>(d)] = static_cast<int32_t>(
          samplers[static_cast<size_t>(d)]->Sample(rng));
    }
    // Run length averages 80% of the dimension; jitter ±50%.
    const double target = 0.8 * static_cast<double>(dense_card);
    const auto run = static_cast<int32_t>(std::clamp(
        target * (0.5 + rng.UniformDouble()), 1.0,
        static_cast<double>(dense_card)));
    const auto start =
        static_cast<int32_t>(rng.UniformInt(0, dense_card - run));
    for (int32_t v = start;
         v < start + run &&
         static_cast<int64_t>(cells.size()) < config.num_tuples;
         ++v) {
      Cell c = proto;
      c.values[static_cast<size_t>(dd)] = v;
      InitCellAggregates(c, static_cast<double>(
                                rng.UniformInt(1, kMeasureMax)));
      cells.push_back(c);
    }
  }
  return cells;
}

}  // namespace aac
