#include "workloads.h"

#include <algorithm>
#include <unordered_set>

#include "cache/cache_entry.h"
#include "workload/query_stream.h"

namespace aac::e2e {
namespace {

// The refresh workload reads from a pool of analyst-session queries. The
// pool grows until its working set reaches kRefreshFootprint of B, so B is
// 1.25x the working set for every seed. Each query may add at most
// kRefreshMaxQueryShare of that target, so the pool holds thousands of
// small queries and arrivals, drawn uniformly from it, average over many of
// them: with hundreds of larger ones, the hit rate moved 10% from seed to
// seed with the few coarse queries each write invalidates.
constexpr double kRefreshFootprint = 0.8;
constexpr double kRefreshMaxQueryShare = 0.002;

// Dashboard shape: small tiles under an 80/20 hot-set skew, with every
// 12th arrival a one-off wide scan. Scans set the dashboard's throughput,
// so their size is held to a band: an unbounded tail would make it depend
// on the few largest scans a seed happens to draw.
constexpr int kDashboardTiles = 100;
constexpr int64_t kTileMaxCells = 200;
constexpr int64_t kScanMinCells = 20'000;
constexpr int64_t kScanMaxCells = 80'000;
constexpr int kScanEvery = 12;

// Spill shape: whole-level queries over a pool of group-bys, 90/10 over a
// hot set whose modeled footprint is 1.35x the budget.
constexpr size_t kSpillPool = 10;
constexpr size_t kSpillMaxHot = 8;
constexpr double kSpillHotFootprint = 1.35;
constexpr double kSpillMaxQueryShare = 0.2;
constexpr double kSpillMaxChunkShare = 0.5;  // of one hot-cache shard

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      // B = the paper's "15MB-eq" point; the sessions' working set is far
      // larger, so lookup, folds, replacement and the backend do the work.
      {"analyst", 0.68, 0, 4, 0, 0, 5'000},
      // Repeat-heavy tiles: the result cache answers most arrivals.
      {"dashboard", 0.25, 0, 4, 0, 0, 25'000},
      // Whole-level answers too big for the result cache and a hot set
      // bigger than RAM: the warm and disk tiers do the work.
      {"spill", 0.25, int64_t{64} << 20, 1, 0, 0, 10'000},
      // The read pool fits (B is 1.25x its working set), so invalidation
      // and refill after each write decide the numbers.
      {"refresh", 4.0, 0, 4, 80, 32, 5'000},
  };
  return specs;
}

// Independent sub-seeds for the parts of one workload.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.NextU64();
}

// Upper bound on a query's answer cells: the product of its range widths.
int64_t MaxAnswerCells(const Schema& schema, const Query& q) {
  int64_t cells = 1;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto& r = q.ranges[static_cast<size_t>(d)];
    cells *= std::max<int64_t>(r.second - r.first, 1);
  }
  return cells;
}

void AddQuery(Stream* s, const Query& q, QueryClass cls) {
  s->queries.push_back(q);
  s->classes.push_back(cls);
}

// Logical bytes of a growing set of distinct chunks, at the size model's
// exact per-chunk sizes.
class Footprint {
 public:
  explicit Footprint(const Experiment& exp) : exp_(exp) {}

  // Bytes `q` would add.
  double Extra(const Query& q) const {
    const GroupById gb = exp_.lattice().IdOf(q.level);
    double extra = 0.0;
    for (ChunkId chunk : ChunksForQuery(exp_.grid(), q)) {
      if (chunks_.count(CacheKey{gb, chunk}) == 0) extra += Bytes(gb, chunk);
    }
    return extra;
  }

  void Add(const Query& q) {
    const GroupById gb = exp_.lattice().IdOf(q.level);
    for (ChunkId chunk : ChunksForQuery(exp_.grid(), q)) {
      if (chunks_.insert(CacheKey{gb, chunk}).second) bytes_ += Bytes(gb, chunk);
    }
  }

  double bytes() const { return bytes_; }

 private:
  double Bytes(GroupById gb, ChunkId chunk) const {
    return exp_.size_model().ExpectedChunkTuples(gb, chunk) *
           static_cast<double>(exp_.config().bytes_per_tuple);
  }

  const Experiment& exp_;
  std::unordered_set<CacheKey, CacheKeyHash> chunks_;
  double bytes_ = 0.0;
};

// One session per client, interleaved: arrival i is query i / sessions of
// session i % sessions, and each client replays one session, so an
// analyst's next query is sent after the answer to the previous one. With
// one session dealt out to all clients, a drill-down raced the query it
// refines, and the complete-hit rate of a seed moved by up to 25% with the
// host's speed.
Stream SessionStream(const Schema& schema, uint64_t seed, int64_t arrivals,
                     int sessions) {
  const int64_t per_session = arrivals / sessions + 1;
  std::vector<std::vector<QueryStreamEntry>> runs;
  for (int k = 0; k < sessions; ++k) {
    QueryStreamConfig config;
    config.seed = SubSeed(seed, 16 + static_cast<uint64_t>(k));
    QueryStreamGenerator gen(&schema, config);
    runs.push_back(gen.Generate(static_cast<int>(per_session)));
  }
  Stream s;
  s.sessions = sessions;
  for (int64_t j = 0; j < per_session; ++j) {
    for (const std::vector<QueryStreamEntry>& run : runs) {
      AddQuery(&s, run[static_cast<size_t>(j)].query, QueryClass::kInteractive);
    }
  }
  s.order.resize(s.queries.size());
  for (size_t i = 0; i < s.order.size(); ++i) {
    s.order[i] = static_cast<uint32_t>(i);
  }
  return s;
}

Stream RefreshStream(const Stack& stack, uint64_t seed, int64_t arrivals) {
  const Experiment& exp = *stack.exp;
  QueryStreamConfig config;
  config.seed = SubSeed(seed, 1);
  QueryStreamGenerator gen(&exp.schema(), config);
  const double target =
      kRefreshFootprint * static_cast<double>(stack.budget_bytes);
  Footprint footprint(exp);
  Stream s;
  while (footprint.bytes() < target) {
    for (const QueryStreamEntry& e : gen.Generate(1)) {
      if (footprint.Extra(e.query) > kRefreshMaxQueryShare * target) continue;
      footprint.Add(e.query);
      AddQuery(&s, e.query, QueryClass::kInteractive);
    }
  }
  Rng rng(SubSeed(seed, 5));
  s.order.reserve(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    s.order.push_back(static_cast<uint32_t>(rng.Uniform(s.queries.size())));
  }
  return s;
}

Stream DashboardStream(const Schema& schema, uint64_t seed,
                       int64_t arrivals) {
  QueryStreamConfig config;
  config.seed = SubSeed(seed, 2);
  QueryStreamGenerator gen(&schema, config);
  const int64_t want_scans = arrivals / kScanEvery + 1;
  std::unordered_set<Query, QueryHash> tiles;
  std::vector<Query> tile_order;
  std::vector<Query> scans;
  while (static_cast<int>(tile_order.size()) < kDashboardTiles ||
         static_cast<int64_t>(scans.size()) < want_scans) {
    for (const QueryStreamEntry& e : gen.Generate(1000)) {
      const int64_t cells = MaxAnswerCells(schema, e.query);
      if (cells <= kTileMaxCells &&
          static_cast<int>(tile_order.size()) < kDashboardTiles &&
          tiles.insert(e.query).second) {
        tile_order.push_back(e.query);
      } else if (cells >= kScanMinCells && cells <= kScanMaxCells &&
                 static_cast<int64_t>(scans.size()) < want_scans) {
        scans.push_back(e.query);
      }
    }
  }
  // Most arrivals are result-cache hits whose cost is the copy of the
  // tile's answer, so the hot tiles are a stratified sample of the answer
  // sizes: sorted by size, one tile of every five leads the pool.
  std::stable_sort(tile_order.begin(), tile_order.end(),
                   [&schema](const Query& a, const Query& b) {
                     return MaxAnswerCells(schema, a) < MaxAnswerCells(schema, b);
                   });
  constexpr int kBand = 5;
  Stream s;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kDashboardTiles; ++i) {
      if ((i % kBand == kBand / 2) == (pass == 0)) {
        AddQuery(&s, tile_order[static_cast<size_t>(i)], QueryClass::kInteractive);
      }
    }
  }
  for (const Query& q : scans) AddQuery(&s, q, QueryClass::kBatch);
  const uint64_t hot = kDashboardTiles / kBand;
  Rng rng(SubSeed(seed, 3));
  int64_t next_scan = 0;
  s.order.reserve(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    if (i % kScanEvery == kScanEvery - 1) {
      s.order.push_back(static_cast<uint32_t>(kDashboardTiles + next_scan++));
      continue;
    }
    const uint64_t pick = rng.Bernoulli(0.8) ? rng.Uniform(hot)
                                             : rng.Uniform(kDashboardTiles);
    s.order.push_back(static_cast<uint32_t>(pick));
  }
  return s;
}

// Largest chunk of `gb` in logical bytes.
double MaxChunkBytes(const Experiment& exp, GroupById gb) {
  double tuples = 0.0;
  for (ChunkId c = 0; c < exp.grid().NumChunks(gb); ++c) {
    tuples = std::max(tuples, exp.size_model().ExpectedChunkTuples(gb, c));
  }
  return tuples * static_cast<double>(exp.config().bytes_per_tuple);
}

// The spill pool: whole-level queries over group-bys of one lattice rank
// (level sum). Group-bys of one rank are pairwise incomparable, so no pool
// member can be folded from another and re-references must come from the
// hot cache, the warm tier or the disk tier. A group-by qualifies when its
// answer is at most kSpillMaxQueryShare of B (one query must not flush
// every tier) and each of its chunks fits in half a hot-cache shard (the
// hot cache splits its capacity evenly over its shards and never admits a
// chunk larger than its shard, which could then never demote). The most
// detailed rank whose largest qualifying group-bys reach the hot
// footprint wins; the rest of that rank is the cold tail.
Stream SpillStream(const Stack& stack, uint64_t seed, int64_t arrivals) {
  const Experiment& exp = *stack.exp;
  const Lattice& lattice = exp.lattice();
  const ChunkSizeModel& sizes = exp.size_model();
  const double budget = static_cast<double>(stack.budget_bytes);
  const double shard_bytes = static_cast<double>(exp.cache_bytes()) /
                             static_cast<double>(stack.exp->cache().num_shards());
  std::vector<std::vector<GroupById>> by_rank;
  for (GroupById gb : lattice.TopoDetailedFirst()) {
    const auto bytes = static_cast<double>(sizes.ExpectedGroupByBytes(gb));
    if (bytes > kSpillMaxQueryShare * budget ||
        MaxChunkBytes(exp, gb) > kSpillMaxChunkShare * shard_bytes) {
      continue;
    }
    const LevelVector& level = lattice.LevelOf(gb);
    size_t rank = 0;
    for (int d = 0; d < level.size(); ++d) rank += static_cast<size_t>(level[d]);
    if (by_rank.size() <= rank) by_rank.resize(rank + 1);
    by_rank[rank].push_back(gb);
  }
  std::vector<GroupById> pool;
  size_t hot = 0;
  double best_bytes = -1.0;
  for (size_t r = by_rank.size(); r-- > 0;) {
    std::vector<GroupById>& rank = by_rank[r];
    std::stable_sort(rank.begin(), rank.end(),
                     [&sizes](GroupById a, GroupById b) {
                       return sizes.ExpectedGroupByBytes(a) >
                              sizes.ExpectedGroupByBytes(b);
                     });
    double bytes = 0.0;
    size_t n = 0;
    while (n < rank.size() && n < kSpillMaxHot &&
           bytes < kSpillHotFootprint * budget) {
      bytes += static_cast<double>(sizes.ExpectedGroupByBytes(rank[n++]));
    }
    if (bytes > best_bytes) {
      best_bytes = bytes;
      hot = n;
      pool.assign(rank.begin(),
                  rank.begin() + static_cast<long>(
                                     std::min<size_t>(rank.size(), kSpillPool)));
    }
    if (bytes >= kSpillHotFootprint * budget) break;
  }
  Stream s;
  for (GroupById gb : pool) {
    AddQuery(&s, Query::WholeLevel(exp.schema(), lattice.LevelOf(gb)),
             QueryClass::kInteractive);
  }
  Rng rng(SubSeed(seed, 4));
  s.order.reserve(static_cast<size_t>(arrivals));
  for (int64_t i = 0; i < arrivals; ++i) {
    const uint64_t pick = rng.Bernoulli(0.9) ? rng.Uniform(hot)
                                             : rng.Uniform(pool.size());
    s.order.push_back(static_cast<uint32_t>(pick));
  }
  return s;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  for (const WorkloadSpec& s : Specs()) {
    if (s.name == name) {
      *spec = s;
      return true;
    }
  }
  return false;
}

Stream MakeStream(const WorkloadSpec& spec, const Stack& stack, uint64_t seed,
                  int64_t arrivals) {
  const Schema& schema = stack.exp->schema();
  if (spec.name == "dashboard") return DashboardStream(schema, seed, arrivals);
  if (spec.name == "spill") return SpillStream(stack, seed, arrivals);
  if (spec.name == "refresh") return RefreshStream(stack, seed, arrivals);
  return SessionStream(schema, seed, arrivals, spec.clients);
}

int64_t WorkingSetBytes(const Experiment& exp, const Stream& stream,
                        int64_t first, int64_t last) {
  std::vector<bool> seen_query(stream.queries.size(), false);
  Footprint footprint(exp);
  for (int64_t i = first; i < last; ++i) {
    const uint32_t q = stream.order[static_cast<size_t>(i)];
    if (seen_query[q]) continue;
    seen_query[q] = true;
    footprint.Add(stream.queries[q]);
  }
  return static_cast<int64_t>(footprint.bytes());
}

std::vector<Cell> MakeWriteBatch(const Schema& schema, int tuples, Rng& rng) {
  std::vector<Cell> cells(static_cast<size_t>(tuples));
  for (Cell& c : cells) {
    for (int d = 0; d < schema.num_dims(); ++d) {
      const Dimension& dim = schema.dimension(d);
      c.values[static_cast<size_t>(d)] = static_cast<int32_t>(
          rng.Uniform(static_cast<uint64_t>(dim.cardinality(dim.hierarchy_size()))));
    }
    InitCellAggregates(c, static_cast<double>(rng.UniformInt(1, 1000)));
  }
  return cells;
}

}  // namespace aac::e2e
