#ifndef AAC_WORKLOAD_QUERY_STREAM_H_
#define AAC_WORKLOAD_QUERY_STREAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "schema/schema.h"
#include "util/rng.h"

namespace aac {

/// The four OLAP query archetypes the paper's stream mixes (Section 7.2):
/// drill-down, roll-up and proximity queries derive from the previous query
/// (creating the locality an active cache exploits); random queries break
/// the session.
enum class QueryKind {
  kRandom,
  kDrillDown,
  kRollUp,
  kProximity,
};

const char* QueryKindName(QueryKind kind);

/// Mix and shape of a generated query stream. The paper used 100 queries at
/// 30% drill-down, 30% roll-up, 30% proximity and 10% random.
struct QueryStreamConfig {
  int num_queries = 100;
  double drill_down_frac = 0.3;
  double roll_up_frac = 0.3;
  double proximity_frac = 0.3;
  // Remaining probability mass is random queries.

  uint64_t seed = 7;
};

/// One generated query plus the archetype that produced it.
struct QueryStreamEntry {
  Query query;
  QueryKind kind;
};

/// Deterministic generator of OLAP analyst sessions over a schema.
class QueryStreamGenerator {
 public:
  /// `schema` must outlive the generator.
  QueryStreamGenerator(const Schema* schema, const QueryStreamConfig& config);

  /// Generates the full stream. Repeated calls continue the same session
  /// (the next stream's relative queries chain off the last query).
  std::vector<QueryStreamEntry> Generate(int num_queries);
  std::vector<QueryStreamEntry> Generate() {
    return Generate(config_.num_queries);
  }

 private:
  Query RandomQuery();
  Query DrillDown(const Query& prev);
  Query RollUp(const Query& prev);
  Query Proximity(const Query& prev);

  /// Random value range at `level` of dimension `d`, covering 20-70% of
  /// its values.
  std::pair<int32_t, int32_t> RandomRange(int d, int level);

  const Schema* schema_;
  QueryStreamConfig config_;
  Rng rng_;
  bool has_prev_ = false;
  Query prev_;
};

}  // namespace aac

#endif  // AAC_WORKLOAD_QUERY_STREAM_H_
