// Tiered chunk cache under scarce RAM: one tier vs hot+warm vs
// hot+warm+disk at EQUAL total RAM budget.
//
// A dashboard-style stream replays a pool of analyst queries with an 80/20
// hot-set skew over a cache too small to hold the working set. In the
// one-tier configuration every eviction is a hard loss: the next arrival
// of that tile pays a backend fetch (or a re-fold). The tiered
// configurations split the SAME RAM budget B:
//
//   one_tier       : hot chunk cache = B (the pre-PR configuration).
//   hot+warm       : hot = (1-share)*B, warm = share*B. Hot victims above
//                    the benefit gate are compressed (chunk_codec) into
//                    the warm tier; re-references decode and promote
//                    instead of refetching. The codec's 3-10x packing
//                    makes share*B of encoded bytes hold several times
//                    that in logical chunks — RAM the one-tier mode
//                    spends on raw cells.
//   hot+warm+disk  : the same split plus a disk spill file; warm-tier
//                    CLOCK victims spill to disk (compressed, checksummed
//                    extents) and promote back on re-reference. Disk is
//                    not RAM, so the RAM budgets stay equal.
//
// Reported per mode: chunk hit rate (requested chunks served without the
// backend), per-tier serve counts {hot+fold, warm, disk}, backend fetches,
// decode overhead, the warm tier's measured compression ratio, and the
// effective logical capacity the RAM budget ended up holding. The
// pass/fail contracts gate on deterministic counters: both tiered modes
// must beat one_tier's hit rate strictly, at equal RAM, and tier
// accounting must stay sound (ValidateInvariants on every tier).
// --smoke shrinks sizes and writes no file unless --out is given;
// tools/check.sh bench-smoke runs exactly that under ASan/UBSan and TSan.
// The full run writes BENCH_tiered.json (--out PATH overrides).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/support.h"
#include "cache/disk_tier.h"
#include "cache/warm_tier.h"
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
  // Exact per-chunk sizes: the stream builder sizes the hot set against
  // the budget, so the model error of the closed-form estimate matters.
  config.measured_sizes = true;
  // Scarce RAM: the budget holds ~1/8 of the base data, so the hot set
  // does not fit and replacement decides everything.
  config.cache_fraction = 0.125;
  return config;
}

// Pool of whole-level queries replayed with a 90/10 hot-set skew. The hot
// set is chosen by MODELED FOOTPRINT, not position: group-bys are picked
// so their cumulative logical bytes land around 1.3x the total RAM budget
// — the dashboard a one-tier cache cannot quite hold (CLOCK cycles it,
// every pass re-fetches) but a hot+warm split can, because the warm
// share's encoded bytes stretch the same RAM over ~2x the logical chunks.
// The 10% cold tail sweeps the rest of the pool to keep eviction pressure
// honest.
std::vector<QueryStreamEntry> MakeDashboardStream(Experiment& exp,
                                                  int pool_size, int total,
                                                  uint64_t seed,
                                                  int64_t budget_bytes,
                                                  int* hot_count_out) {
  const Lattice& lattice = exp.lattice();
  // Rank EVERY group-by by modeled footprint so mid-size levels — the
  // only ones that can straddle the budget — are all candidates.
  std::vector<GroupById> sampled = lattice.TopoDetailedFirst();
  std::sort(sampled.begin(), sampled.end(),
            [&exp](GroupById a, GroupById b) {
              return exp.size_model().ExpectedGroupByBytes(a) >
                     exp.size_model().ExpectedGroupByBytes(b);
            });
  const double target = 1.35 * static_cast<double>(budget_bytes);
  std::vector<GroupById> hot_set;
  std::vector<GroupById> cold;
  int64_t hot_bytes = 0;
  for (GroupById gb : sampled) {  // descending footprint
    const int64_t bytes = exp.size_model().ExpectedGroupByBytes(gb);
    // No single hot query may dwarf the budget — it would thrash every
    // configuration equally and prove nothing.
    if (static_cast<double>(hot_bytes) < target &&
        static_cast<double>(bytes) <=
            0.45 * static_cast<double>(budget_bytes) &&
        static_cast<int>(hot_set.size()) < 8) {
      hot_set.push_back(gb);
      hot_bytes += bytes;
    } else {
      cold.push_back(gb);
    }
  }
  if (hot_set.empty()) hot_set.push_back(sampled.back());
  std::vector<QueryStreamEntry> pool;
  auto push = [&exp, &lattice, &pool](GroupById gb) {
    QueryStreamEntry e;
    e.query = Query::WholeLevel(exp.schema(), lattice.LevelOf(gb));
    e.kind = QueryKind::kRandom;
    pool.push_back(std::move(e));
  };
  for (GroupById gb : hot_set) push(gb);
  for (GroupById gb : cold) {
    if (static_cast<int>(pool.size()) >= pool_size) break;
    // The cold tail supplies eviction pressure, not a flood: levels big
    // enough to wipe every tier on one pass stay out of the pool.
    if (static_cast<double>(exp.size_model().ExpectedGroupByBytes(gb)) >
        0.45 * static_cast<double>(budget_bytes)) {
      continue;
    }
    push(gb);
  }
  const int n = static_cast<int>(pool.size());
  const int hot = static_cast<int>(hot_set.size());
  *hot_count_out = hot;
  std::printf("hot set: %d whole-level queries, %.2f MB modeled footprint "
              "(budget %.2f MB -> %.2fx)\n",
              hot, static_cast<double>(hot_bytes) / 1e6,
              static_cast<double>(budget_bytes) / 1e6,
              static_cast<double>(hot_bytes) /
                  static_cast<double>(budget_bytes));
  Rng rng(seed);
  std::vector<QueryStreamEntry> stream;
  stream.reserve(static_cast<size_t>(total));
  for (int i = 0; i < total; ++i) {
    const size_t pick = rng.Bernoulli(0.9)
                            ? rng.Uniform(static_cast<uint64_t>(hot))
                            : rng.Uniform(static_cast<uint64_t>(n));
    stream.push_back(pool[pick]);
  }
  return stream;
}

struct ModeOutcome {
  std::string mode;
  int64_t hot_bytes = 0;
  int64_t warm_bytes = 0;   // encoded-byte budget (0 = no warm tier)
  int64_t disk_bytes = 0;   // disk budget (0 = no disk tier)
  WorkloadTotals totals;
  WarmTierStats warm_stats;
  DiskTierStats disk_stats;
  int64_t warm_used = 0;
  int64_t disk_used = 0;
  double compression = 0.0;
  bool clean = false;

  // Requested chunks served without touching the backend.
  double HitRate() const {
    return totals.chunks_requested == 0
               ? 0.0
               : 1.0 - static_cast<double>(totals.chunks_backend) /
                           static_cast<double>(totals.chunks_requested);
  }
  // Logical bytes the RAM budget effectively held at the end of the run:
  // raw hot bytes plus the warm tier's encoded bytes scaled back up by
  // its measured compression ratio.
  double EffectiveLogicalBytes(int64_t hot_used) const {
    const double ratio = compression > 0.0 ? compression : 1.0;
    return static_cast<double>(hot_used) +
           static_cast<double>(warm_used) * ratio;
  }
};

ModeOutcome RunMode(const std::string& mode, ExperimentConfig config,
                    double warm_share, const std::string& spill_path,
                    int64_t disk_bytes,
                    const std::vector<QueryStreamEntry>& stream) {
  if (warm_share > 0.0) {
    // Split the same RAM budget B: hot gets (1-share), warm gets share
    // (in encoded bytes — that is the point).
    const double full = config.cache_fraction;
    config.cache_fraction = full * (1.0 - warm_share);
    config.warm_fraction = warm_share / (1.0 - warm_share);
    if (disk_bytes > 0) {
      config.disk_spill_path = spill_path;
      config.disk_spill_bytes = disk_bytes;
    }
  }
  Experiment exp(config);
  ModeOutcome out;
  out.mode = mode;
  out.hot_bytes = exp.cache_bytes();
  out.warm_bytes =
      exp.warm_tier() != nullptr ? exp.warm_tier()->capacity_bytes() : 0;
  out.disk_bytes = disk_bytes;
  out.totals = RunWorkload(exp.engine(), stream);
  out.clean = exp.cache().ValidateInvariants();
  if (exp.warm_tier() != nullptr) {
    out.warm_stats = exp.warm_tier()->stats();
    out.warm_used = exp.warm_tier()->bytes_used();
    out.compression = out.warm_stats.CompressionRatio();
    out.clean = out.clean && exp.warm_tier()->ValidateInvariants();
  }
  if (exp.disk_tier() != nullptr) {
    out.disk_stats = exp.disk_tier()->stats();
    out.disk_used = exp.disk_tier()->bytes_used();
    out.clean = out.clean && exp.disk_tier()->ValidateInvariants();
  }
  out.clean = out.clean && exp.cache().TotalPinCount() == 0;
  const double effective =
      out.EffectiveLogicalBytes(exp.cache().bytes_used());
  std::printf(
      "%-14s hot %.2f MB, warm %.2f MB, disk %.2f MB | hit %.1f%% | served "
      "hot/fold %lld, warm %lld, disk %lld, backend %lld | decode %.1f ms | "
      "ratio %.2fx | effective %.2f MB logical\n",
      mode.c_str(), static_cast<double>(out.hot_bytes) / 1e6,
      static_cast<double>(out.warm_bytes) / 1e6,
      static_cast<double>(out.disk_bytes) / 1e6, 100.0 * out.HitRate(),
      static_cast<long long>(out.totals.chunks_direct +
                             out.totals.chunks_aggregated),
      static_cast<long long>(out.totals.chunks_warm),
      static_cast<long long>(out.totals.chunks_disk),
      static_cast<long long>(out.totals.chunks_backend),
      out.totals.decode_ms, out.compression, effective / 1e6);
  std::remove(spill_path.c_str());
  return out;
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
      std::fprintf(stderr, "usage: tiered_cache [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  if (!smoke && out_path.empty()) out_path = "BENCH_tiered.json";

  const ExperimentConfig config = ModeConfig(smoke);
  const int queries =
      static_cast<int>(EnvInt64("AAC_BENCH_QUERIES", smoke ? 60 : 300));
  const int pool_size = static_cast<int>(EnvInt64("AAC_BENCH_POOL", 10));
  // The warm tier's share of the RAM budget. Decoding a warm blob still
  // counts as a hit (no backend touch), so as long as the codec packs
  // better than 1x, effective logical capacity grows monotonically with
  // the share — the cost is decode time, orders of magnitude below a
  // fetch. Half-and-half keeps the hot tier big enough for the immediate
  // working set while roughly doubling what the budget retains.
  const double share =
      static_cast<double>(EnvInt64("AAC_BENCH_WARM_SHARE_PCT", 50)) / 100.0;
  const std::string spill_path = "aac_tiered_spill.bin";

  std::vector<QueryStreamEntry> stream;
  int64_t total_budget = 0;
  int hot_count = 0;
  {
    Experiment exp(config);
    PrintBanner("tiered chunk cache at equal RAM",
                "tiered-cache extension (not in the paper): compressed "
                "warm tier + disk spill below the chunk cache",
                exp);
    total_budget = exp.cache_bytes();
    stream = MakeDashboardStream(exp, pool_size, queries,
                                 config.data.seed + 3, total_budget,
                                 &hot_count);
  }
  std::printf(
      "dashboard stream: %d arrivals, 90%% of them over the %d-query hot "
      "set of a %d-query pool\nRAM budget: %.2f MB total; tiered modes "
      "give %.0f%% of it to the warm tier (encoded)\n\n",
      queries, hot_count, pool_size,
      static_cast<double>(total_budget) / 1e6, share * 100.0);

  const ModeOutcome one =
      RunMode("one_tier", config, /*warm_share=*/0.0, spill_path, 0, stream);
  const ModeOutcome warm =
      RunMode("hot+warm", config, share, spill_path, 0, stream);
  const int64_t disk_budget = EnvInt64("AAC_BENCH_DISK_BYTES", 64 << 20);
  const ModeOutcome disk = RunMode("hot+warm+disk", config, share,
                                   spill_path, disk_budget, stream);

  std::printf("\n");
  TablePrinter table({"mode", "hot MB", "warm MB", "hit %", "warm serves",
                      "disk serves", "backend chunks", "decode ms",
                      "engine ms"});
  for (const ModeOutcome* m : {&one, &warm, &disk}) {
    table.AddRow({m->mode,
                  TablePrinter::Fmt(static_cast<double>(m->hot_bytes) / 1e6, 2),
                  TablePrinter::Fmt(static_cast<double>(m->warm_bytes) / 1e6, 2),
                  TablePrinter::Fmt(100.0 * m->HitRate(), 1),
                  std::to_string(m->totals.chunks_warm),
                  std::to_string(m->totals.chunks_disk),
                  std::to_string(m->totals.chunks_backend),
                  TablePrinter::Fmt(m->totals.decode_ms, 2),
                  TablePrinter::Fmt(m->totals.TotalMs(), 1)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: at equal RAM, compressed demotion turns hard "
      "evictions into warm hits — strictly fewer backend fetches; the disk "
      "tier catches what even the warm budget sheds. Decode ms is the "
      "price, orders of magnitude below a fetch.\n\n");

  int failures = 0;
  auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  require(one.clean && warm.clean && disk.clean,
          "tier invariants must hold in every mode after the workload");
  require(warm.hot_bytes + warm.warm_bytes <= total_budget,
          "hot+warm must not exceed the one-tier RAM budget");
  require(disk.hot_bytes + disk.warm_bytes <= total_budget,
          "hot+warm+disk RAM must not exceed the one-tier RAM budget");
  require(warm.totals.chunks_warm > 0,
          "the warm tier must actually serve promotions");
  require(disk.totals.chunks_disk > 0,
          "the disk tier must actually serve promotions");
  require(warm.warm_stats.demoted_encoded_bytes <
              warm.warm_stats.demoted_raw_bytes,
          "demoted chunks must actually compress");
  require(warm.HitRate() > one.HitRate(),
          "at equal RAM, hot+warm must beat the one-tier hit rate strictly");
  require(disk.HitRate() > one.HitRate(),
          "at equal RAM, hot+warm+disk must beat the one-tier hit rate "
          "strictly");
  require(warm.totals.chunks_backend < one.totals.chunks_backend,
          "warm promotions must replace backend fetches, not add to them");
  if (failures > 0) return 1;

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"bench\": \"tiered_cache\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"queries\": %d,\n  \"pool\": %d,\n"
                 "  \"total_ram_bytes\": %lld,\n  \"warm_share\": %.3f,\n"
                 "  \"modes\": [\n",
                 queries, pool_size, static_cast<long long>(total_budget),
                 share);
    const ModeOutcome* modes[] = {&one, &warm, &disk};
    for (size_t i = 0; i < 3; ++i) {
      const ModeOutcome& m = *modes[i];
      std::fprintf(
          f,
          "    {\"mode\": \"%s\", \"hot_bytes\": %lld, "
          "\"warm_bytes\": %lld, \"disk_bytes\": %lld, "
          "\"hit_rate_pct\": %.2f, \"chunks_warm\": %lld, "
          "\"chunks_disk\": %lld, \"chunks_backend\": %lld, "
          "\"decode_ms\": %.3f, \"compression_ratio\": %.3f, "
          "\"warm_evictions\": %lld, \"warm_spills\": %lld, "
          "\"disk_torn_reads\": %lld, \"engine_ms\": %.3f}%s\n",
          m.mode.c_str(), static_cast<long long>(m.hot_bytes),
          static_cast<long long>(m.warm_bytes),
          static_cast<long long>(m.disk_bytes), 100.0 * m.HitRate(),
          static_cast<long long>(m.totals.chunks_warm),
          static_cast<long long>(m.totals.chunks_disk),
          static_cast<long long>(m.totals.chunks_backend),
          m.totals.decode_ms, m.compression,
          static_cast<long long>(m.warm_stats.evictions),
          static_cast<long long>(m.warm_stats.spills),
          static_cast<long long>(m.disk_stats.torn_reads),
          m.totals.TotalMs(), i + 1 < 3 ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace aac::bench

int main(int argc, char** argv) { return aac::bench::Main(argc, argv); }
