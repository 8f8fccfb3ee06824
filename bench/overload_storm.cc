// Overload storm: an open-loop arrival generator driven at 4x the measured
// service capacity, comparing the pre-overload-PR engine behaviour ("seed":
// no deadlines, no admission control — every arrival executes to completion
// no matter how stale) against the guarded configuration (per-query
// deadlines anchored at the scheduled arrival time + bounded admission in
// front of the engine).
//
// Open loop means arrival times are fixed up front and do not slow down
// when the server falls behind — the realistic overload shape. Latency is
// measured from the scheduled arrival, so queue lateness counts. Goodput is
// completed-and-fresh work: queries fully answered within the SLO, per
// second of wall clock. The seed engine saturates — the backlog grows
// without bound, late queries still execute and their answers arrive after
// anyone cares — while the guarded engine sheds or expires stale work in
// O(1) and spends its capacity on queries that can still make their SLO.
//
// Arrival rate and SLO are calibrated per machine from an isolated run of
// the same query stream, so the 4x saturation and the headroom inside the
// SLO hold under sanitizer slowdowns too. Results go to stdout and
// BENCH_overload.json (--out PATH overrides). --smoke shrinks sizes, writes
// no file unless --out is given, and exits nonzero unless (a) every arrival
// resolved with a typed status, (b) guarded goodput is strictly higher than
// seed goodput, and (c) the cache ends with valid invariants and zero
// pinned entries — tools/check.sh bench-smoke runs exactly that under
// ASan/UBSan and TSan.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/support.h"
#include "core/admission.h"
#include "core/concurrent_engine.h"
#include "util/deadline.h"
#include "util/sleep.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace aac::bench {
namespace {

ExperimentConfig StormConfig(bool smoke) {
  ExperimentConfig config;
  config.data.num_tuples =
      EnvInt64("AAC_BENCH_TUPLES", smoke ? 20'000 : 60'000);
  config.data.seed = static_cast<uint64_t>(EnvInt64("AAC_BENCH_SEED", 42));
  config.cache_fraction = 0.6;
  config.cache_shards = 16;
  return config;
}

std::vector<QueryStreamEntry> MakeStream(const Schema& schema, int count) {
  QueryStreamConfig config;
  config.num_queries = count;
  config.seed = static_cast<uint64_t>(EnvInt64("AAC_BENCH_SEED", 42)) + 1;
  QueryStreamGenerator gen(&schema, config);
  return gen.Generate();
}

// Isolated (unloaded, single-threaded) cost of the stream's head over a
// fresh cache: the yardstick for both the arrival interval (real service
// nanoseconds) and the SLO (real + simulated spend, since the deadline
// machinery charges both against the budget).
struct Calibration {
  double mean_real_ns = 0.0;
  double median_total_ns = 0.0;
};

Calibration Calibrate(const ExperimentConfig& config,
                      const std::vector<QueryStreamEntry>& stream) {
  Experiment exp(config);
  StatAccumulator real_ns;
  std::vector<double> total_ns;
  const size_t n = std::min<size_t>(stream.size(), 64);
  for (size_t i = 0; i < n; ++i) {
    QueryStats stats;
    Stopwatch sw;
    (void)exp.engine().ExecuteQuery(stream[i].query, &stats);
    const double real = static_cast<double>(sw.ElapsedNanos());
    real_ns.Add(real);
    total_ns.push_back(real + stats.backend_ms * 1e6);
  }
  std::sort(total_ns.begin(), total_ns.end());
  Calibration cal;
  cal.mean_real_ns = real_ns.mean();
  cal.median_total_ns = total_ns[total_ns.size() / 2];
  return cal;
}

struct Resolution {
  bool resolved = false;
  ResultStatus status = ResultStatus::kOk;
  int64_t latency_ns = 0;  // scheduled arrival -> resolution, real time
};

struct ModeResult {
  std::string mode;
  int queries = 0;
  int unresolved = 0;
  int complete = 0;  // kOk or kDegradedComplete
  int complete_within_slo = 0;
  int degraded_partial = 0;
  int deadline_exceeded = 0;
  int shedded = 0;
  int64_t salvaged_chunks = 0;
  double duration_ms = 0.0;
  double goodput_qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
  bool cache_clean = false;  // invariants valid and zero pins at the end
  AdmissionStats gate;       // zeros for the seed mode
};

ModeResult RunMode(const std::string& mode, bool guarded,
                   const ExperimentConfig& config,
                   const std::vector<QueryStreamEntry>& stream, int clients,
                   int64_t interval_ns, int64_t slo_ns) {
  Experiment exp(config);
  ConcurrentQueryEngine pool([&exp] { return exp.NewEngine(); });
  if (guarded) {
    AdmissionConfig admission;
    admission.max_concurrent = std::max(1, clients / 2);
    admission.max_concurrent_batch = std::max(1, clients / 4);
    admission.max_queued_interactive = 2;
    admission.max_queued_batch = 1;
    pool.ConfigureAdmission(admission);
  }

  const int total = static_cast<int>(stream.size());
  std::vector<Resolution> res(static_cast<size_t>(total));
  std::atomic<int> next{0};
  std::atomic<int64_t> salvaged{0};

  Stopwatch run;
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(clients));
  for (int w = 0; w < clients; ++w) {
    workers.emplace_back([&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total) return;
        const int64_t scheduled = static_cast<int64_t>(i) * interval_ns;
        SleepForNanos(scheduled - run.ElapsedNanos());
        const int64_t late =
            std::max<int64_t>(run.ElapsedNanos() - scheduled, 0);
        QueryStats stats;
        QueryResult result;
        if (guarded) {
          // The deadline is anchored at the *scheduled* arrival: budget
          // already burned in the backlog is gone, and an arrival picked up
          // later than the whole SLO is born expired — it resolves typed in
          // O(1) instead of wasting a slot on an answer nobody wants.
          ExecContext ctx;
          ctx.deadline = Deadline::AfterNanos(slo_ns - late);
          result = pool.ExecuteQuery(stream[static_cast<size_t>(i)].query,
                                     &ctx, &stats);
        } else {
          result =
              pool.ExecuteQuery(stream[static_cast<size_t>(i)].query, &stats);
        }
        Resolution& r = res[static_cast<size_t>(i)];
        r.resolved = true;
        r.status = result.status;
        r.latency_ns = run.ElapsedNanos() - scheduled;
        salvaged.fetch_add(stats.salvaged_chunks, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  ModeResult out;
  out.mode = mode;
  out.queries = total;
  out.duration_ms = run.ElapsedMillis();
  SampleSet latency_ms;
  for (const Resolution& r : res) {
    if (!r.resolved) {
      ++out.unresolved;
      continue;
    }
    latency_ms.Add(static_cast<double>(r.latency_ns) / 1e6);
    switch (r.status) {
      case ResultStatus::kOk:
      case ResultStatus::kDegradedComplete:
        ++out.complete;
        if (r.latency_ns <= slo_ns) ++out.complete_within_slo;
        break;
      case ResultStatus::kDegradedPartial:
        ++out.degraded_partial;
        break;
      case ResultStatus::kDeadlineExceeded:
        ++out.deadline_exceeded;
        break;
      case ResultStatus::kShedded:
        ++out.shedded;
        break;
    }
  }
  out.salvaged_chunks = salvaged.load();
  out.goodput_qps = out.duration_ms <= 0.0
                        ? 0.0
                        : static_cast<double>(out.complete_within_slo) * 1e3 /
                              out.duration_ms;
  if (latency_ms.count() > 0) {
    out.p50_ms = latency_ms.Percentile(0.50);
    out.p99_ms = latency_ms.Percentile(0.99);
    out.max_ms = latency_ms.max();
  }
  out.cache_clean =
      exp.cache().ValidateInvariants() && exp.cache().TotalPinCount() == 0;
  if (guarded) out.gate = pool.admission()->stats();
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
      std::fprintf(stderr, "usage: overload_storm [--smoke] [--out PATH]\n");
      return 2;
    }
  }
  if (!smoke && out_path.empty()) out_path = "BENCH_overload.json";

  const ExperimentConfig config = StormConfig(smoke);
  const int clients =
      static_cast<int>(EnvInt64("AAC_BENCH_OVERLOAD_CLIENTS", 8));
  const double saturation = 4.0;

  {
    Experiment exp(config);
    PrintBanner("overload storm: open-loop saturation",
                "robustness extension (not in the paper): deadlines + "
                "admission control vs the unguarded engine",
                exp);
  }

  // Calibrate on the head of the same stream the storm will replay.
  std::vector<QueryStreamEntry> calib_stream;
  {
    Experiment exp(config);
    calib_stream = MakeStream(exp.schema(), 64);
  }
  const Calibration cal = Calibrate(config, calib_stream);
  // SLO: comfortable isolated headroom (8x the median isolated spend,
  // real + simulated, floored at 1 ms so OS sleep granularity is noise).
  const int64_t slo_ns =
      std::max<int64_t>(static_cast<int64_t>(8.0 * cal.median_total_ns),
                        1'000'000);
  // Offered load: `saturation` times the best case the client pool could
  // ever sustain (perfect scaling of the isolated real service time).
  const int64_t interval_ns = std::max<int64_t>(
      static_cast<int64_t>(cal.mean_real_ns / (saturation *
                                               static_cast<double>(clients))),
      1);
  // Enough arrivals that the seed backlog provably outgrows the SLO: the
  // unguarded queue gains at least (1 - 1/saturation) of a service time per
  // arrival, so lateness at the tail is ~queries * 0.75 * mean_real /
  // clients. Size the run so that reaches several SLOs.
  const int64_t backlog_per_arrival = std::max<int64_t>(
      static_cast<int64_t>(0.75 * cal.mean_real_ns /
                           static_cast<double>(clients)),
      1);
  int queries = static_cast<int>(std::min<int64_t>(
      std::max<int64_t>(smoke ? 320 : 1200, 4 * slo_ns / backlog_per_arrival),
      4000));
  queries = static_cast<int>(
      EnvInt64("AAC_BENCH_OVERLOAD_QUERIES", queries));

  std::printf(
      "calibration: mean isolated service %.3f ms real, median total (real + "
      "simulated) %.3f ms\n"
      "storm: %d arrivals every %.1f us (%.0fx the perfect-scaling capacity "
      "of %d clients), SLO %.2f ms\n\n",
      cal.mean_real_ns / 1e6, cal.median_total_ns / 1e6, queries,
      static_cast<double>(interval_ns) / 1e3, saturation, clients,
      static_cast<double>(slo_ns) / 1e6);

  std::vector<QueryStreamEntry> stream;
  {
    Experiment exp(config);
    stream = MakeStream(exp.schema(), queries);
  }

  const ModeResult seed = RunMode("seed_no_deadlines", /*guarded=*/false,
                                  config, stream, clients, interval_ns,
                                  slo_ns);
  const ModeResult guarded = RunMode("admission_deadlines", /*guarded=*/true,
                                     config, stream, clients, interval_ns,
                                     slo_ns);

  TablePrinter table({"mode", "complete", "in-SLO", "shed", "dl-exceeded",
                      "goodput q/s", "p50 ms", "p99 ms", "max ms"});
  for (const ModeResult* m : {&seed, &guarded}) {
    table.AddRow({m->mode, std::to_string(m->complete),
                  std::to_string(m->complete_within_slo),
                  std::to_string(m->shedded),
                  std::to_string(m->deadline_exceeded),
                  TablePrinter::Fmt(m->goodput_qps, 0),
                  TablePrinter::Fmt(m->p50_ms, 2),
                  TablePrinter::Fmt(m->p99_ms, 2),
                  TablePrinter::Fmt(m->max_ms, 2)});
  }
  table.Print();
  std::printf(
      "\nguarded gate ledger: %lld admitted, %lld shed (queue full), %lld "
      "shed (breaker), %lld expired in queue; %lld chunks salvaged from "
      "killed queries.\n",
      static_cast<long long>(guarded.gate.admitted),
      static_cast<long long>(guarded.gate.shed_queue_full),
      static_cast<long long>(guarded.gate.shed_breaker_open),
      static_cast<long long>(guarded.gate.expired_in_queue),
      static_cast<long long>(guarded.salvaged_chunks));
  std::printf(
      "expected shape: seed p99 grows with the backlog (open loop, 4x "
      "saturation) while guarded p99 stays near the SLO; guarded goodput "
      "strictly above seed.\n\n");

  // The bench's own contract — enforced in every mode, not just --smoke.
  int failures = 0;
  auto require = [&failures](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };
  require(seed.unresolved == 0 && guarded.unresolved == 0,
          "every arrival must resolve with a typed status (no query blocks "
          "indefinitely)");
  require(seed.cache_clean && guarded.cache_clean,
          "cache invariants must hold with zero pinned entries after the "
          "storm");
  require(guarded.goodput_qps > seed.goodput_qps,
          "admission + deadlines must yield strictly higher goodput than "
          "the seed engine under saturation");
  require(guarded.gate.admitted + guarded.gate.shed_queue_full +
                  guarded.gate.shed_breaker_open +
                  guarded.gate.expired_in_queue ==
              guarded.queries,
          "guarded gate ledger must account for every arrival");
  if (failures > 0) return 1;

  if (!out_path.empty()) {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n  \"bench\": \"overload_storm\",\n  \"smoke\": %s,\n",
                 smoke ? "true" : "false");
    std::fprintf(f,
                 "  \"queries\": %d,\n  \"clients\": %d,\n"
                 "  \"saturation\": %.1f,\n  \"slo_ms\": %.3f,\n"
                 "  \"arrival_interval_us\": %.1f,\n"
                 "  \"calibration\": {\"mean_real_ms\": %.4f, "
                 "\"median_total_ms\": %.4f},\n",
                 queries, clients, saturation,
                 static_cast<double>(slo_ns) / 1e6,
                 static_cast<double>(interval_ns) / 1e3, cal.mean_real_ns / 1e6,
                 cal.median_total_ns / 1e6);
    std::fprintf(f, "  \"modes\": [\n");
    const ModeResult* modes[] = {&seed, &guarded};
    for (size_t i = 0; i < 2; ++i) {
      const ModeResult& m = *modes[i];
      std::fprintf(
          f,
          "    {\"mode\": \"%s\", \"complete\": %d, "
          "\"complete_within_slo\": %d, \"degraded_partial\": %d, "
          "\"deadline_exceeded\": %d, \"shedded\": %d, "
          "\"salvaged_chunks\": %lld, \"duration_ms\": %.2f, "
          "\"goodput_qps\": %.1f, \"p50_ms\": %.3f, \"p99_ms\": %.3f, "
          "\"max_ms\": %.3f}%s\n",
          m.mode.c_str(), m.complete, m.complete_within_slo,
          m.degraded_partial, m.deadline_exceeded, m.shedded,
          static_cast<long long>(m.salvaged_chunks), m.duration_ms,
          m.goodput_qps, m.p50_ms, m.p99_ms, m.max_ms, i == 0 ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"goodput_gain\": %.2f\n}\n",
                 seed.goodput_qps <= 0.0
                     ? 0.0
                     : guarded.goodput_qps / seed.goodput_qps);
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace aac::bench

int main(int argc, char** argv) { return aac::bench::Main(argc, argv); }
