#include "workload/query_stream.h"

#include <algorithm>

#include "util/check.h"

namespace aac {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kRandom:
      return "random";
    case QueryKind::kDrillDown:
      return "drill-down";
    case QueryKind::kRollUp:
      return "roll-up";
    case QueryKind::kProximity:
      return "proximity";
  }
  return "?";
}

QueryStreamGenerator::QueryStreamGenerator(const Schema* schema,
                                           const QueryStreamConfig& config)
    : schema_(schema), config_(config), rng_(config.seed) {
  AAC_CHECK(schema != nullptr);
  AAC_CHECK(config.drill_down_frac + config.roll_up_frac +
                config.proximity_frac <=
            1.0 + 1e-9);
}

std::vector<QueryStreamEntry> QueryStreamGenerator::Generate(int num_queries) {
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(num_queries));
  for (int i = 0; i < num_queries; ++i) {
    QueryKind kind = QueryKind::kRandom;
    if (has_prev_) {
      const double u = rng_.UniformDouble();
      if (u < config_.drill_down_frac) {
        kind = QueryKind::kDrillDown;
      } else if (u < config_.drill_down_frac + config_.roll_up_frac) {
        kind = QueryKind::kRollUp;
      } else if (u < config_.drill_down_frac + config_.roll_up_frac +
                         config_.proximity_frac) {
        kind = QueryKind::kProximity;
      }
      // Degenerate sessions: can't drill below the base or roll above the
      // top; degrade to a proximity move so the label matches the query.
      if (kind == QueryKind::kDrillDown &&
          prev_.level == schema_->base_level()) {
        kind = QueryKind::kProximity;
      }
      if (kind == QueryKind::kRollUp && prev_.level == schema_->top_level()) {
        kind = QueryKind::kProximity;
      }
    }
    Query q;
    switch (kind) {
      case QueryKind::kRandom:
        q = RandomQuery();
        break;
      case QueryKind::kDrillDown:
        q = DrillDown(prev_);
        break;
      case QueryKind::kRollUp:
        q = RollUp(prev_);
        break;
      case QueryKind::kProximity:
        q = Proximity(prev_);
        break;
    }
    prev_ = q;
    has_prev_ = true;
    stream.push_back(QueryStreamEntry{q, kind});
  }
  return stream;
}

std::pair<int32_t, int32_t> QueryStreamGenerator::RandomRange(int d,
                                                              int level) {
  const auto card =
      static_cast<int32_t>(schema_->dimension(d).cardinality(level));
  // The fraction of the dimension's values a random query selects, drawn
  // uniformly from [kMinSelectivity, kMaxSelectivity].
  constexpr double kMinSelectivity = 0.2;
  constexpr double kMaxSelectivity = 0.7;
  const double sel =
      kMinSelectivity +
      rng_.UniformDouble() * (kMaxSelectivity - kMinSelectivity);
  const int32_t width = std::clamp(
      static_cast<int32_t>(sel * static_cast<double>(card) + 0.5), 1, card);
  const int32_t lo =
      static_cast<int32_t>(rng_.UniformInt(0, card - width));
  return {lo, lo + width};
}

Query QueryStreamGenerator::RandomQuery() {
  Query q;
  q.level = LevelVector::Uniform(schema_->num_dims(), 0);
  for (int d = 0; d < schema_->num_dims(); ++d) {
    const int level = static_cast<int>(
        rng_.UniformInt(0, schema_->dimension(d).hierarchy_size()));
    q.level.Set(d, level);
    q.ranges[static_cast<size_t>(d)] = RandomRange(d, level);
  }
  return q;
}

// Move one dimension one level more detailed, mapping the selected range to
// its children (the analyst expands a member).
Query QueryStreamGenerator::DrillDown(const Query& prev) {
  std::vector<int> candidates;
  for (int d = 0; d < schema_->num_dims(); ++d) {
    if (prev.level[d] < schema_->dimension(d).hierarchy_size()) {
      candidates.push_back(d);
    }
  }
  if (candidates.empty()) return Proximity(prev);  // already at base
  const int d = candidates[rng_.Uniform(candidates.size())];
  const int level = prev.level[d];
  const Dimension& dim = schema_->dimension(d);
  const auto [lo, hi] = prev.ranges[static_cast<size_t>(d)];
  Query q = prev;
  q.level.Set(d, level + 1);
  q.ranges[static_cast<size_t>(d)] = {dim.ChildRange(level, lo).first,
                                      dim.ChildRange(level, hi - 1).second};
  return q;
}

// Move one dimension one level more aggregated; the range widens to the
// parents covering it.
Query QueryStreamGenerator::RollUp(const Query& prev) {
  std::vector<int> candidates;
  for (int d = 0; d < schema_->num_dims(); ++d) {
    if (prev.level[d] > 0) candidates.push_back(d);
  }
  if (candidates.empty()) return Proximity(prev);  // already fully rolled up
  const int d = candidates[rng_.Uniform(candidates.size())];
  const int level = prev.level[d];
  const Dimension& dim = schema_->dimension(d);
  const auto [lo, hi] = prev.ranges[static_cast<size_t>(d)];
  Query q = prev;
  q.level.Set(d, level - 1);
  q.ranges[static_cast<size_t>(d)] = {dim.ParentValue(level, lo),
                                      dim.ParentValue(level, hi - 1) + 1};
  return q;
}

// Same level; shift one dimension's range sideways (clamped), keeping the
// width — the analyst scrolls to a neighbouring region.
Query QueryStreamGenerator::Proximity(const Query& prev) {
  Query q = prev;
  const int d = static_cast<int>(rng_.Uniform(schema_->num_dims()));
  const int level = prev.level[d];
  const auto card =
      static_cast<int32_t>(schema_->dimension(d).cardinality(level));
  auto [lo, hi] = prev.ranges[static_cast<size_t>(d)];
  const int32_t width = hi - lo;
  const int32_t max_shift = std::max(1, width / 2);
  const auto shift =
      static_cast<int32_t>(rng_.UniformInt(-max_shift, max_shift));
  int32_t new_lo = std::clamp(lo + shift, 0, card - width);
  q.ranges[static_cast<size_t>(d)] = {new_lo, new_lo + width};
  return q;
}

}  // namespace aac
