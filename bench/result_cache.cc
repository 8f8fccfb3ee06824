// Semantic result cache vs. chunk-cache-only at EQUAL total RAM budget.
//
// A dashboard-style workload replays a pool of small analyst queries with
// an 80/20 hot-set skew, interleaved with occasional one-off wide scans
// (the export/report queries every real dashboard system suffers). The
// scans matter: they flood the chunk cache and flush the hot tiles'
// computed chunks (the two-level policy evicts cache-computed entries
// first), so without a result layer every repeat after a scan re-folds or
// re-fetches its answer. Two modes run the identical stream over
// identical data:
//
//   chunk_only    : the whole RAM budget B goes to the chunk cache (the
//                   pre-PR configuration). Repeats still re-fold their
//                   answer from cached chunks on every arrival.
//   chunk+result  : the chunk cache gets B*(1-share) and a ResultCache the
//                   remaining B*share. Repeats whose canonical key is
//                   resident skip lookup, folding and the backend
//                   entirely — at the cost of a smaller chunk cache.
//
// Reported per mode: complete-answer rate, result-layer hit rate, the
// engine-time total (lookup + aggregation + simulated backend + update)
// and the real CPU component of it (lookup + aggregation + update). The
// pass/fail contracts gate on deterministic counters — backend fetches and
// chunk touches — plus total engine time, where the simulated-backend gap
// dwarfs timer noise; raw CPU ms is reported for the curious.
// Every mode's answers are checked bit-identical (epsilon 0) against a
// cold re-fold by a result-cache-free oracle engine over the same data.
// --smoke shrinks sizes, writes no file unless --out is given, and exits
// nonzero if any contract fails — tools/check.sh bench-smoke runs exactly
// that under ASan/UBSan and TSan. The full run writes
// BENCH_result_cache.json (--out PATH overrides).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/support.h"
#include "cache/result_cache.h"
#include "core/query.h"
#include "util/rng.h"
#include "util/table_printer.h"
#include "workload/workload_runner.h"

namespace aac::bench {
namespace {

ExperimentConfig ModeConfig(bool smoke) {
  ExperimentConfig config;
  config.data.num_tuples =
      EnvInt64("AAC_BENCH_TUPLES", smoke ? 20'000 : 120'000);
  config.data.seed = static_cast<uint64_t>(EnvInt64("AAC_BENCH_SEED", 42));
  config.data.dense_dim = 2;
  // Scarce: the cache holds ~1/4 of the base data, so the scan flood
  // genuinely displaces the hot tiles' chunks between repeats.
  config.cache_fraction = 0.25;
  return config;
}

// Upper bound on a query's answer cells: the product of its range widths
// at the query's level (the true count is this times the data density).
int64_t MaxAnswerCells(const Schema& schema, const Query& q) {
  int64_t cells = 1;
  for (int d = 0; d < schema.num_dims(); ++d) {
    const auto& r = q.ranges[static_cast<size_t>(d)];
    cells *= std::max<int64_t>(r.second - r.first, 1);
  }
  return cells;
}

// Pool of distinct analyst queries replayed with an 80/20 hot-set skew:
// 80% of arrivals draw from the hottest 20% of the pool. Dashboard tiles
// are aggregated slices, so the pool keeps only queries whose answer is
// small (<= `max_cells` cells) — the shape a semantic layer targets; a
// detail-level scan the size of the cache would never be worth storing
// twice, and the admission bar would reject it anyway.
std::vector<QueryStreamEntry> MakeDashboardStream(const Schema& schema,
                                                  int pool_size, int total,
                                                  uint64_t seed,
                                                  std::vector<Query>* pool_out) {
  QueryStreamConfig config;
  config.seed = seed;
  QueryStreamGenerator gen(&schema, config);
  constexpr int64_t max_cells = 200;     // tiles: small aggregated answers
  constexpr int64_t scan_cells = 20'000;  // scans: wide one-off reads
  constexpr int scan_every = 12;          // one scan per ~dozen arrivals
  std::vector<QueryStreamEntry> pool;
  std::vector<QueryStreamEntry> scans;
  const int want_scans = total / scan_every + 1;
  for (int rounds = 0;
       (static_cast<int>(pool.size()) < pool_size ||
        static_cast<int>(scans.size()) < want_scans) &&
       rounds < 400;
       ++rounds) {
    for (QueryStreamEntry& e : gen.Generate(pool_size)) {
      const int64_t cells = MaxAnswerCells(schema, e.query);
      if (cells <= max_cells &&
          static_cast<int>(pool.size()) < pool_size) {
        pool.push_back(std::move(e));
      } else if (cells >= scan_cells &&
                 static_cast<int>(scans.size()) < want_scans) {
        scans.push_back(std::move(e));
      }
    }
  }
  pool_size = static_cast<int>(pool.size());
  const int hot = std::max(1, pool_size / 5);
  Rng rng(seed + 2);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(total));
  size_t next_scan = 0;
  for (int i = 0; i < total; ++i) {
    if (scan_every > 0 && i % scan_every == scan_every - 1 &&
        next_scan < scans.size()) {
      stream.push_back(scans[next_scan++]);
      continue;
    }
    const size_t pick =
        rng.Bernoulli(0.8)
            ? rng.Uniform(static_cast<uint64_t>(hot))
            : rng.Uniform(static_cast<uint64_t>(pool_size));
    stream.push_back(pool[pick]);
  }
  if (pool_out != nullptr) {
    for (const QueryStreamEntry& e : pool) pool_out->push_back(e.query);
  }
  return stream;
}

// The middle tier's own (real, non-simulated) per-query work.
double CpuMs(const WorkloadTotals& t) {
  return t.lookup_ms + t.aggregation_ms + t.update_ms;
}

struct ModeOutcome {
  std::string mode;
  int64_t chunk_bytes = 0;
  int64_t result_bytes = 0;
  WorkloadTotals totals;
  ResultCacheStats rc_stats;  // zeros in chunk-only mode
  bool cache_clean = false;
};

ModeOutcome RunMode(const std::string& mode, const ExperimentConfig& config,
                    const std::vector<QueryStreamEntry>& stream,
                    int64_t result_bytes) {
  Experiment exp(config);
  std::optional<ResultCache> results;
  if (result_bytes > 0) {
    ResultCache::Config rc_config;
    rc_config.capacity_bytes = result_bytes;
    rc_config.bytes_per_tuple = config.bytes_per_tuple;
    // Tiles are small; a one-off scan answer must never displace them.
    rc_config.max_entry_fraction = 0.1;
    results.emplace(rc_config);
    exp.cache().AddListener(&*results);
    exp.engine().Attach({.result_cache = &*results});
  }
  ModeOutcome out;
  out.mode = mode;
  out.chunk_bytes = exp.cache_bytes();
  out.result_bytes = result_bytes;
  out.totals = RunWorkload(exp.engine(), stream);
  if (results.has_value()) out.rc_stats = results->stats();
  out.cache_clean = exp.cache().ValidateInvariants() &&
                    (!results.has_value() || results->ValidateInvariants());
  return out;
}

// Bit-identity contract: a warm engine with the result cache attached must
// answer each sampled pool query exactly like a result-cache-free cold
// engine over the same data (epsilon 0: exact doubles, exact counts).
int CheckBitIdentity(const ExperimentConfig& config,
                     const std::vector<QueryStreamEntry>& stream,
                     const std::vector<Query>& sample, int64_t result_bytes) {
  Experiment warm(config);
  ResultCache::Config rc_config;
  rc_config.capacity_bytes = result_bytes;
  rc_config.bytes_per_tuple = config.bytes_per_tuple;
  rc_config.max_entry_fraction = 0.1;  // match RunMode
  ResultCache results(rc_config);
  warm.cache().AddListener(&results);
  warm.engine().Attach({.result_cache = &results});
  (void)RunWorkload(warm.engine(), stream);

  Experiment oracle(config);
  int mismatches = 0;
  for (const Query& q : sample) {
    QueryResult got = warm.engine().ExecuteQuery(q, nullptr);
    QueryResult want = oracle.engine().ExecuteQuery(q, nullptr);
    // Compare what the client sees: refined rows (the cached payload is
    // the trimmed answer, so raw chunk payloads legitimately differ).
    std::vector<ResultRow> got_rows =
        RefineResult(warm.schema(), q, got.chunks);
    std::vector<ResultRow> want_rows =
        RefineResult(oracle.schema(), q, want.chunks);
    auto by_coords = [](const ResultRow& a, const ResultRow& b) {
      return a.values < b.values;
    };
    std::sort(got_rows.begin(), got_rows.end(), by_coords);
    std::sort(want_rows.begin(), want_rows.end(), by_coords);
    if (got_rows.size() != want_rows.size()) {
      ++mismatches;
      continue;
    }
    for (size_t i = 0; i < got_rows.size(); ++i) {
      if (got_rows[i].values != want_rows[i].values ||
          got_rows[i].value != want_rows[i].value) {
        ++mismatches;
        break;
      }
    }
  }
  return mismatches;
}

int Main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: result_cache [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  if (!smoke && out_path.empty()) out_path = "BENCH_result_cache.json";

  const ExperimentConfig config = ModeConfig(smoke);
  const int queries =
      static_cast<int>(EnvInt64("AAC_BENCH_QUERIES", smoke ? 240 : 800));
  const int pool_size = std::max(8, queries / 8);
  // The result layer's share of the total RAM budget. Trimmed answers are
  // tiny (a tile stores only its own cells), so a small slice of the
  // budget holds the whole hot set; the chunk cache keeps the rest.
  const double share = 0.15;

  std::vector<Query> pool;
  std::vector<QueryStreamEntry> stream;
  int64_t total_budget = 0;
  {
    Experiment exp(config);
    PrintBanner("semantic result cache vs chunk cache at equal RAM",
                "result-cache extension (not in the paper): canonicalized "
                "whole-query answers above the chunk cache",
                exp);
    total_budget = exp.cache_bytes();
    stream = MakeDashboardStream(exp.schema(), pool_size, queries,
                                 config.data.seed + 7, &pool);
  }
  std::printf(
      "dashboard stream: %d arrivals over a pool of %d distinct queries "
      "(80%% of arrivals hit the hottest 20%%)\n"
      "RAM budget: %.2f MB total; result mode gives %.0f%% of it to the "
      "result layer\n\n",
      queries, pool_size, static_cast<double>(total_budget) / 1e6,
      share * 100.0);

  // chunk-only: the full budget in the chunk cache.
  const ModeOutcome base =
      RunMode("chunk_only", config, stream, /*result_bytes=*/0);

  // chunk+result: shrink the chunk cache so chunk + result = the same B.
  ExperimentConfig split_config = config;
  split_config.cache_fraction =
      config.cache_fraction * (1.0 - share);
  const int64_t result_bytes =
      total_budget - Experiment(split_config).cache_bytes();
  const ModeOutcome with =
      RunMode("chunk+result", split_config, stream, result_bytes);

  TablePrinter table({"mode", "chunk MB", "result MB", "complete %",
                      "result-hit %", "backend chunks", "engine ms",
                      "cpu ms", "avg ms/query"});
  for (const ModeOutcome* m : {&base, &with}) {
    table.AddRow({m->mode,
                  TablePrinter::Fmt(static_cast<double>(m->chunk_bytes) / 1e6, 2),
                  TablePrinter::Fmt(static_cast<double>(m->result_bytes) / 1e6, 2),
                  TablePrinter::Fmt(m->totals.CompleteHitPercent(), 1),
                  TablePrinter::Fmt(m->totals.ResultHitPercent(), 1),
                  std::to_string(m->totals.chunks_backend),
                  TablePrinter::Fmt(m->totals.TotalMs(), 1),
                  TablePrinter::Fmt(CpuMs(m->totals), 2),
                  TablePrinter::Fmt(m->totals.AvgQueryMs(), 3)});
  }
  table.Print();
  for (const ModeOutcome* m : {&base, &with}) {
    std::printf(
        "%-13s chunks: %lld direct, %lld aggregated, %lld backend; "
        "ms: %.2f lookup, %.2f fold, %.2f update\n",
        m->mode.c_str(), static_cast<long long>(m->totals.chunks_direct),
        static_cast<long long>(m->totals.chunks_aggregated),
        static_cast<long long>(m->totals.chunks_backend),
        m->totals.lookup_ms, m->totals.aggregation_ms, m->totals.update_ms);
  }
  std::printf(
      "\nresult layer: %lld probes, %lld hits, %lld admitted, %lld evicted, "
      "%lld rejected\n"
      "expected shape: the repeat-heavy stream turns result-layer hits into "
      "whole queries that skip lookup, folding and the backend — higher "
      "complete-answer rate and lower engine time than spending the same "
      "bytes on chunks alone.\n\n",
      static_cast<long long>(with.rc_stats.probes),
      static_cast<long long>(with.rc_stats.hits),
      static_cast<long long>(with.rc_stats.admitted),
      static_cast<long long>(with.rc_stats.evictions),
      static_cast<long long>(with.rc_stats.rejected));

  const size_t sample_size = std::min<size_t>(pool.size(), smoke ? 6 : 16);
  const std::vector<Query> sample(pool.begin(),
                                  pool.begin() +
                                      static_cast<long>(sample_size));
  const int mismatches =
      CheckBitIdentity(split_config, stream, sample, result_bytes);

  // The bench's own contract — enforced in every mode, not just --smoke.
  int failures = 0;
  auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  require(base.cache_clean && with.cache_clean,
          "cache invariants must hold in both layers after the workload");
  require(with.rc_stats.hits > 0,
          "the repeat-heavy stream must produce result-cache hits");
  require(mismatches == 0,
          "result-cache answers must be bit-identical to a cold re-fold");
  require(with.chunk_bytes + with.result_bytes <= total_budget,
          "the split mode must not exceed the chunk-only RAM budget");
  require(with.totals.CompleteHitPercent() >=
              base.totals.CompleteHitPercent(),
          "at equal RAM the result layer must not lower the complete-answer "
          "rate");
  // Perf contracts on DETERMINISTIC counters (wall-clock ms is reported
  // but too noisy at smoke sizes to gate on): result hits must translate
  // into strictly less chunk traffic of both kinds.
  require(with.totals.chunks_backend < base.totals.chunks_backend,
          "at equal RAM the result layer must reduce backend chunk fetches");
  require(with.totals.chunks_direct + with.totals.chunks_aggregated <
              base.totals.chunks_direct + base.totals.chunks_aggregated,
          "result hits must skip chunk-cache reads and folds, not shift "
          "them around");
  require(with.totals.TotalMs() < base.totals.TotalMs(),
          "at equal RAM the result layer must lower total engine time "
          "(the simulated-backend gap dwarfs timer noise)");
  if (failures > 0) return 1;

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"result_cache\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"queries\": %d,\n  \"pool\": %d,\n"
                 "  \"total_budget_bytes\": %lld,\n"
                 "  \"result_share\": %.2f,\n  \"modes\": [\n",
                 queries, pool_size, static_cast<long long>(total_budget),
                 share);
    const ModeOutcome* modes[] = {&base, &with};
    for (size_t i = 0; i < 2; ++i) {
      const ModeOutcome& m = *modes[i];
      std::fprintf(
          f,
          "    {\"mode\": \"%s\", \"chunk_bytes\": %lld, "
          "\"result_bytes\": %lld, \"complete_hit_pct\": %.2f, "
          "\"result_hit_pct\": %.2f, \"result_hits\": %lld, "
          "\"result_admitted\": %lld, \"chunks_backend\": %lld, "
          "\"engine_ms\": %.3f, \"cpu_ms\": %.3f, "
          "\"avg_query_ms\": %.4f}%s\n",
          m.mode.c_str(), static_cast<long long>(m.chunk_bytes),
          static_cast<long long>(m.result_bytes),
          m.totals.CompleteHitPercent(), m.totals.ResultHitPercent(),
          static_cast<long long>(m.totals.result_hits),
          static_cast<long long>(m.totals.result_admitted),
          static_cast<long long>(m.totals.chunks_backend),
          m.totals.TotalMs(), CpuMs(m.totals), m.totals.AvgQueryMs(),
          i == 0 ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"bit_identity_sample\": %zu,\n"
                 "  \"bit_identity_mismatches\": %d,\n"
                 "  \"cpu_time_ratio\": %.3f\n}\n",
                 sample_size, mismatches,
                 CpuMs(base.totals) <= 0.0
                     ? 0.0
                     : CpuMs(with.totals) / CpuMs(base.totals));
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace aac::bench

int main(int argc, char** argv) { return aac::bench::Main(argc, argv); }
