// aac_e2e: runs one workload of the end-to-end benchmark in its own process.
//
//   aac_e2e --workload NAME --seed S --seconds T [--trace] [--smoke]
//           [--results-dir DIR]
//
// Set-up (data, measured size model, stack, stream, 1,000 single-client
// warm-up queries) builds the stack, which the workload's clients then
// drive closed loop for T seconds or until the stream runs out. Afterwards
// a fixed sample of stream queries is checked against a fold taken
// straight from the backend, every tier's invariants are checked, and the
// workload checks that its intended layer did the work. Then the stack is
// dropped and set up twice more; setup_s is the median of the three
// set-ups, the first timed from process start.
// Progress goes to stderr; one JSON object with every metric, check and
// count goes to stdout. The exit code is 0 only when every check passed.
//
// --trace wraps the stack's seams in span-recording decorators and
// alternates one-second slices with recording on and off, so the traced
// run also measures what recording costs. Its timings are perturbed;
// end-to-end numbers come from untraced runs.
//
// --smoke shrinks the run (20k tuples, one client, 200 warm-up and 1,000
// timed queries, one set-up) so that its counters repeat exactly.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/invalidation.h"
#include "core/query.h"
#include "stack.h"
#include "trace.h"
#include "workloads.h"

namespace aac::e2e {
namespace {

using Clock = std::chrono::steady_clock;

constexpr int64_t kTuples = 120'000;
constexpr int kWarmupQueries = 1'000;
constexpr size_t kSetupRepeats = 3;
constexpr int64_t kSmokeTuples = 20'000;
constexpr int kSmokeWarmupQueries = 200;
constexpr int64_t kSmokeTimedQueries = 1'000;
constexpr int kOracleSamples = 64;
constexpr double kTraceSliceSeconds = 1.0;
constexpr size_t kStoredSpansPerThread = 50'000;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 0.0;  // required: BENCHMARK.json's run_seconds
  bool trace = false;
  bool smoke = false;
  std::string results_dir = "build-e2e/results";
};

bool ParseOptions(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--results-dir" && has_value) {
      o->results_dir = argv[++i];
    } else if (arg == "--trace") {
      o->trace = true;
    } else if (arg == "--smoke") {
      o->smoke = true;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

// Sums over one client's timed queries and writes; merged after the run.
struct Totals {
  std::vector<double> lat_ms;   // real: ExecuteQuery call to return
  std::vector<double> resp_ms;  // real plus the simulated backend charge
  std::vector<double> write_ms;
  int64_t queries = 0;
  int64_t not_ok = 0;
  int64_t complete_hits = 0;
  int64_t chunks_requested = 0;
  int64_t chunks_direct = 0;
  int64_t chunks_aggregated = 0;
  int64_t chunks_backend = 0;
  int64_t chunks_coalesced = 0;
  int64_t chunks_warm = 0;
  int64_t chunks_disk = 0;
  int64_t tuples_aggregated = 0;
  int64_t fold_ns = 0;
  double queue_wait_ms = 0.0;
  double lookup_ms = 0.0;
  double update_ms = 0.0;
  double decode_ms = 0.0;
  double backend_sim_ms = 0.0;
  int64_t writes = 0;
  int64_t entries_dropped = 0;
  // Queries whose root span was recorded, and the rest.
  int64_t traced_queries = 0;
  int64_t untraced_queries = 0;
  RootArgs traced_phases;  // QueryStats phases summed over traced queries

  void Add(const QueryStats& s) {
    ++queries;
    complete_hits += s.complete_hit ? 1 : 0;
    chunks_requested += s.chunks_requested;
    chunks_direct += s.chunks_direct;
    chunks_aggregated += s.chunks_aggregated;
    chunks_backend += s.chunks_backend;
    chunks_coalesced += s.chunks_coalesced;
    chunks_warm += s.chunks_warm;
    chunks_disk += s.chunks_disk;
    tuples_aggregated += s.tuples_aggregated;
    fold_ns += s.fold_ns;
    queue_wait_ms += s.queue_wait_ms;
    lookup_ms += s.lookup_ms;
    update_ms += s.update_ms;
    decode_ms += s.decode_ms;
    backend_sim_ms += s.backend_ms;
  }

  void Merge(const Totals& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    resp_ms.insert(resp_ms.end(), o.resp_ms.begin(), o.resp_ms.end());
    write_ms.insert(write_ms.end(), o.write_ms.begin(), o.write_ms.end());
    queries += o.queries;
    not_ok += o.not_ok;
    complete_hits += o.complete_hits;
    chunks_requested += o.chunks_requested;
    chunks_direct += o.chunks_direct;
    chunks_aggregated += o.chunks_aggregated;
    chunks_backend += o.chunks_backend;
    chunks_coalesced += o.chunks_coalesced;
    chunks_warm += o.chunks_warm;
    chunks_disk += o.chunks_disk;
    tuples_aggregated += o.tuples_aggregated;
    fold_ns += o.fold_ns;
    queue_wait_ms += o.queue_wait_ms;
    lookup_ms += o.lookup_ms;
    update_ms += o.update_ms;
    decode_ms += o.decode_ms;
    backend_sim_ms += o.backend_sim_ms;
    writes += o.writes;
    entries_dropped += o.entries_dropped;
    traced_queries += o.traced_queries;
    untraced_queries += o.untraced_queries;
    traced_phases += o.traced_phases;
  }
};

RootArgs ArgsOf(const QueryStats& s) {
  RootArgs a;
  a.queue_wait_ms = s.queue_wait_ms;
  a.lookup_ms = s.lookup_ms;
  a.aggregation_ms = s.aggregation_ms;
  a.fold_ms = static_cast<double>(s.fold_ns) / 1e6;
  a.decode_ms = s.decode_ms;
  a.update_ms = s.update_ms;
  a.backend_sim_ms = s.backend_ms;
  a.result_hit = s.result_cache_hit;
  return a;
}

// Closed-loop load: each client sends its next query only when the last
// one returned. Arrivals are handed out in stream order from one counter,
// except that when the stream holds one session per client, each client
// replays its own session. With writes, every `writes_every`-th arrival
// first applies one write batch at a quiescent point: no new query starts
// until the write is done, and the write waits for the queries in flight.
class LoadPhase {
 public:
  LoadPhase(Stack& stack, const Stream& stream, int64_t first_arrival,
            Tracer* tracer)
      : stack_(stack), stream_(stream), first_(first_arrival),
        tracer_(tracer) {}

  void EnableWrites(int every, int tuples, uint64_t seed) {
    writes_every_ = every;
    write_tuples_ = tuples;
    write_rng_ = Rng(seed);
  }

  /// Runs `clients` clients until `limit` arrivals were handed out or, when
  /// `seconds` is positive, until `seconds` have passed, whichever is first.
  Totals Run(int clients, int64_t limit, double seconds) {
    limit_ = limit;
    clients_left_ = clients;
    lanes_ = writes_every_ == 0 && stream_.sessions == clients ? clients : 1;
    std::vector<Totals> per_client(static_cast<size_t>(clients));
    start_ = Clock::now();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(clients));
    for (int c = 0; c < clients; ++c) {
      Totals& t = per_client[static_cast<size_t>(c)];
      threads.emplace_back([this, &t, c] {
        Client(&t, c);
        std::lock_guard<std::mutex> lock(mutex_);
        if (--clients_left_ == 0) cv_.notify_all();
      });
    }
    if (seconds > 0.0) Pace(seconds);
    for (std::thread& t : threads) t.join();
    elapsed_s_ = SecondsSince(start_);
    Totals all;
    for (const Totals& t : per_client) all.Merge(t);
    return all;
  }

  double elapsed_s() const { return elapsed_s_; }
  double traced_s() const { return traced_s_; }
  double untraced_s() const { return untraced_s_; }
  int64_t arrivals() const {
    return std::min(next_.load(), limit_);
  }

 private:
  // Waits until the deadline or until every client has run out of
  // arrivals, switching span recording on and off every slice when tracing,
  // then tells the clients to stop.
  void Pace(double seconds) {
    bool on = false;
    std::unique_lock<std::mutex> lock(mutex_);
    for (double at = 0.0; at < seconds && clients_left_ > 0;) {
      const double slice_end = tracer_ != nullptr
                                   ? std::min(seconds, at + kTraceSliceSeconds)
                                   : seconds;
      if (tracer_ != nullptr) tracer_->set_enabled(on);
      cv_.wait_until(lock,
                     start_ + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(slice_end)),
                     [this] { return clients_left_ == 0; });
      const double now = SecondsSince(start_);
      (on ? traced_s_ : untraced_s_) += now - at;
      at = now;
      if (tracer_ != nullptr) on = !on;
    }
    if (tracer_ != nullptr) tracer_->set_enabled(false);
    stop_ = true;
    cv_.notify_all();
  }

  // The next arrival for a client, or -1 when the phase is over. `own` is
  // the client's next arrival when it replays its own session.
  int64_t Claim(Totals* t, int64_t* own) {
    if (lanes_ > 1) {
      if (stop_ || *own >= limit_) return -1;
      next_.fetch_add(1);  // counts the arrivals taken
      const int64_t i = *own;
      *own += lanes_;
      return i;
    }
    if (writes_every_ == 0) {
      if (stop_) return -1;
      const int64_t i = next_.fetch_add(1);
      return i >= limit_ ? -1 : i;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return !writing_; });
    if (stop_ || next_.load() >= limit_) return -1;
    const int64_t i = next_.fetch_add(1);
    if (i > 0 && i % writes_every_ == 0) {
      writing_ = true;
      cv_.wait(lock, [this] { return in_flight_ == 0; });
      lock.unlock();
      Write(t);
      lock.lock();
      writing_ = false;
      cv_.notify_all();
    }
    ++in_flight_;
    return i;
  }

  void Done() {
    if (writes_every_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    if (--in_flight_ == 0) cv_.notify_all();
  }

  void Write(Totals* t) {
    Experiment& exp = *stack_.exp;
    std::vector<Cell> batch =
        MakeWriteBatch(exp.schema(), write_tuples_, write_rng_);
    const bool traced =
        tracer_ != nullptr && tracer_->BeginRoot(SpanKind::kWrite, t->writes);
    const Clock::time_point start = Clock::now();
    t->entries_dropped += ApplyFactUpdates(exp.mutable_table(), &exp.cache(),
                                           std::move(batch),
                                           stack_.results.get());
    t->write_ms.push_back(SecondsSince(start) * 1e3);
    if (traced) tracer_->EndRoot(nullptr);
    ++t->writes;
  }

  void Client(Totals* t, int lane) {
    // The first timed arrival of session `lane`.
    int64_t own = ((lane - first_) % lanes_ + lanes_) % lanes_;
    for (;;) {
      const int64_t i = Claim(t, &own);
      if (i < 0) return;
      const int64_t arrival = first_ + i;
      ExecContext ctx;
      ctx.query_class = stream_.ClassAt(arrival);
      const bool traced = tracer_ != nullptr &&
                          tracer_->BeginRoot(SpanKind::kQuery, arrival);
      QueryStats stats;
      const Clock::time_point start = Clock::now();
      const QueryResult result =
          stack_.pool->ExecuteQuery(stream_.At(arrival), &ctx, &stats);
      const double ms = SecondsSince(start) * 1e3;
      if (traced) {
        const RootArgs args = ArgsOf(stats);
        tracer_->EndRoot(&args);
        ++t->traced_queries;
        t->traced_phases += args;
      } else {
        ++t->untraced_queries;
      }
      t->Add(stats);
      t->lat_ms.push_back(ms);
      t->resp_ms.push_back(ms + stats.backend_ms);
      if (result.status != ResultStatus::kOk) ++t->not_ok;
      Done();
    }
  }

  Stack& stack_;
  const Stream& stream_;
  const int64_t first_;
  Tracer* const tracer_;
  int writes_every_ = 0;
  int write_tuples_ = 0;
  Rng write_rng_;
  int lanes_ = 1;  // clients replaying a session each, or 1
  int64_t limit_ = 0;
  Clock::time_point start_;
  std::atomic<int64_t> next_{0};
  double elapsed_s_ = 0.0;
  double traced_s_ = 0.0;
  double untraced_s_ = 0.0;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<bool> stop_{false};
  bool writing_ = false;
  int in_flight_ = 0;
  int clients_left_ = 0;
};

// Component counters read before and after the timed phase.
struct Snapshot {
  CacheStats cache;
  WarmTierStats warm;
  ResultCacheStats results;
  BackendStats backend;
  MorselPool::Stats morsels;
  int64_t lookup_nodes = 0;
  int64_t find_plan_calls = 0;
};

Snapshot Take(Stack& stack) {
  Experiment& exp = *stack.exp;
  Snapshot s;
  s.cache = exp.cache().stats();
  if (exp.warm_tier() != nullptr) s.warm = exp.warm_tier()->stats();
  s.results = stack.results->stats();
  s.backend = exp.backend().stats();
  if (stack.pool->morsel_pool() != nullptr) {
    s.morsels = stack.pool->morsel_pool()->stats();
  }
  s.lookup_nodes = stack.vcmc->metrics().nodes_visited.load();
  s.find_plan_calls = stack.find_plan_calls.load();
  return s;
}

bool SameRows(const Schema& schema, const Query& q,
              const std::vector<ChunkData>& got,
              const std::vector<ChunkData>& want) {
  std::vector<ResultRow> a = RefineResult(schema, q, got);
  std::vector<ResultRow> b = RefineResult(schema, q, want);
  if (a.size() != b.size()) return false;
  auto by_coords = [](const ResultRow& x, const ResultRow& y) {
    return x.values < y.values;
  };
  std::sort(a.begin(), a.end(), by_coords);
  std::sort(b.begin(), b.end(), by_coords);
  for (size_t i = 0; i < a.size(); ++i) {
    // Exact: measures are integers, so every fold order sums exactly.
    if (a[i].values != b[i].values || a[i].value != b[i].value) return false;
  }
  return true;
}

// Replays a fixed sample of the timed arrivals through the warm stack and
// compares every aggregate of each answer with a fold of the same chunks
// taken straight from the backend at the current fact-table state.
int OracleMismatches(Stack& stack, const Stream& stream, int64_t first,
                     int64_t count) {
  Experiment& exp = *stack.exp;
  static constexpr AggregateFunction kFns[] = {
      AggregateFunction::kSum, AggregateFunction::kCount,
      AggregateFunction::kMin, AggregateFunction::kMax,
      AggregateFunction::kAvg};
  int mismatches = 0;
  for (int k = 0; k < kOracleSamples; ++k) {
    const int64_t arrival = first + count * k / kOracleSamples;
    const Query& q = stream.At(arrival);
    ExecContext ctx;
    ctx.query_class = stream.ClassAt(arrival);
    QueryStats stats;
    const QueryResult got = stack.pool->ExecuteQuery(q, &ctx, &stats);
    const BackendResult want = exp.backend().ExecuteChunkQuery(
        exp.lattice().IdOf(q.level), ChunksForQuery(exp.grid(), q));
    bool ok = got.status == ResultStatus::kOk &&
              want.status == BackendStatus::kOk;
    for (AggregateFunction fn : kFns) {
      Query qf = q;
      qf.fn = fn;
      ok = ok && SameRows(exp.schema(), qf, got.chunks, want.chunks);
    }
    if (!ok) ++mismatches;
  }
  return mismatches;
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
double Pct(double num, double den) { return 100.0 * Ratio(num, den); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
  int64_t n;         // samples behind the value; -1 for a count
  bool end_to_end;   // false: a per-layer metric
  const char* better = "";  // end-to-end only: "higher" or "lower"
};

struct Check {
  std::string name;
  bool ok;
  std::string detail;
};

__attribute__((format(printf, 1, 2))) std::string Fmt(const char* format,
                                                       ...) {
  char buf[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buf, sizeof(buf), format, args);
  va_end(args);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

// Builds a stack, generates its stream unless `stream` already holds it,
// and runs the single-client warm-up. Returns the seconds from `start`
// until the stack could take its first timed query, less the time spent
// generating the stream: that is the benchmark's input, not the program's
// set-up.
double SetUp(const WorkloadSpec& spec, const StackConfig& config,
             uint64_t seed, int64_t arrivals, int warmup, Tracer* tracer,
             std::unique_ptr<Stack>* stack, Stream* stream,
             Clock::time_point start) {
  *stack = BuildStack(config, tracer);
  double stream_s = 0.0;
  if (stream->order.empty()) {
    const Clock::time_point stream_start = Clock::now();
    *stream = MakeStream(spec, **stack, seed, arrivals);
    stream_s = SecondsSince(stream_start);
  }
  LoadPhase warm(**stack, *stream, 0, nullptr);
  warm.Run(1, warmup, 0.0);
  return SecondsSince(start) - stream_s;
}

int Run(const Options& opt, Clock::time_point process_start) {
  WorkloadSpec spec;
  if (!LookupWorkload(opt.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const int clients = opt.smoke ? 1 : spec.clients;
  const int warmup = opt.smoke ? kSmokeWarmupQueries : kWarmupQueries;
  // The stream caps the timed arrivals: a run ends at its deadline or when
  // the stream runs out, whichever is first.
  const int64_t timed_limit =
      opt.smoke ? kSmokeTimedQueries
                : static_cast<int64_t>(static_cast<double>(spec.max_qps) *
                                       opt.seconds);
  const int64_t arrivals = warmup + timed_limit;
  StackConfig config;
  config.tuples = opt.smoke ? kSmokeTuples : kTuples;
  config.seed = opt.seed;
  config.budget_fraction = spec.budget_fraction;
  config.disk_bytes = spec.disk_bytes;
  config.spill_path = opt.results_dir + "/spill-" + spec.name + "-" +
                      std::to_string(getpid()) + ".bin";

  // The measured stack is set up once, timed from process start. Two more
  // set-ups run after the checks, on fresh stacks that are then dropped,
  // and setup_s is the median of the three; the peak RSS is read before
  // them.
  std::unique_ptr<Tracer> tracer;
  if (opt.trace) tracer = std::make_unique<Tracer>(kStoredSpansPerThread);
  std::unique_ptr<Stack> stack;
  Stream stream;
  std::vector<double> setup_s = {SetUp(spec, config, opt.seed, arrivals,
                                       warmup, tracer.get(), &stack, &stream,
                                       process_start)};
  Experiment& exp = *stack->exp;

  const Snapshot before = Take(*stack);
  LoadPhase phase(*stack, stream, warmup, tracer.get());
  if (spec.writes_every > 0) {
    phase.EnableWrites(spec.writes_every, spec.write_tuples,
                       opt.seed * 0x9e3779b97f4a7c15ULL + 5);
  }
  const Totals t = phase.Run(clients, timed_limit, opt.seconds);
  const Snapshot after = Take(*stack);
  const double elapsed = phase.elapsed_s();
  const int64_t timed_arrivals = phase.arrivals();
  std::fprintf(stderr, "[%s] timed: %lld queries, %lld writes in %.3f s\n",
               spec.name.c_str(), static_cast<long long>(t.queries),
               static_cast<long long>(t.writes), elapsed);

  const int64_t working_set =
      WorkingSetBytes(exp, stream, warmup, warmup + timed_arrivals);
  const int mismatches =
      OracleMismatches(*stack, stream, warmup, std::max<int64_t>(timed_arrivals, 1));

  // ---- Metrics ----
  const auto q = static_cast<double>(std::max<int64_t>(t.queries, 1));
  const auto req = static_cast<double>(t.chunks_requested);
  const int64_t lat_n = static_cast<int64_t>(t.lat_ms.size());
  const int64_t write_n = static_cast<int64_t>(t.write_ms.size());
  const double writes = static_cast<double>(t.writes);
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);

  std::vector<Metric> m;
  auto e2e = [&m](const std::string& name, double v, const std::string& unit,
                  int64_t n, const char* better) {
    m.push_back({name, v, unit, n, true, better});
  };
  auto layer = [&m](const std::string& name, double v,
                    const std::string& unit) {
    m.push_back({name, v, unit, -1, false});
  };
  e2e("qps", static_cast<double>(t.queries) / elapsed, "queries/s", t.queries,
      "higher");
  e2e("lat_p50_ms", Percentile(t.lat_ms, 0.50), "ms", lat_n, "lower");
  e2e("lat_p99_ms", Percentile(t.lat_ms, 0.99), "ms", lat_n, "lower");
  e2e("resp_p50_ms", Percentile(t.resp_ms, 0.50), "ms", lat_n, "lower");
  e2e("resp_p99_ms", Percentile(t.resp_ms, 0.99), "ms", lat_n, "lower");
  e2e("complete_hit_pct", Pct(static_cast<double>(t.complete_hits), q), "%",
      t.queries, "higher");
  e2e("failed_pct",
      Pct(static_cast<double>(t.not_ok + mismatches),
          static_cast<double>(t.queries + kOracleSamples)),
      "%", t.queries + kOracleSamples, "lower");
  if (spec.writes_every > 0) {
    e2e("write_p50_ms", Percentile(t.write_ms, 0.50), "ms", write_n, "lower");
    e2e("write_p95_ms", Percentile(t.write_ms, 0.95), "ms", write_n, "lower");
  }
  e2e("peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB", 1,
      "lower");

  const CacheStats& c0 = before.cache;
  const CacheStats& c1 = after.cache;
  const WarmTierStats& w0 = before.warm;
  const WarmTierStats& w1 = after.warm;
  const ResultCacheStats& r0 = before.results;
  const ResultCacheStats& r1 = after.results;
  const BackendStats& b0 = before.backend;
  const BackendStats& b1 = after.backend;
  const double rc_hits = static_cast<double>(r1.hits - r0.hits);
  const double offers = static_cast<double>(w1.offers - w0.offers);
  const double gate_rejected =
      static_cast<double>(w1.gate_rejected - w0.gate_rejected);
  const double morsel_runs = static_cast<double>(
      after.morsels.parallel_runs + after.morsels.serial_runs -
      before.morsels.parallel_runs - before.morsels.serial_runs);
  const int64_t backend_calls = b1.queries - b0.queries;

  layer("admission.queue_wait_ms_per_query", t.queue_wait_ms / q, "ms");
  layer("admission.peak_queued",
        static_cast<double>(stack->pool->admission()->stats().peak_queued),
        "queries");
  layer("result_cache.hit_pct",
        Pct(rc_hits, static_cast<double>(r1.probes - r0.probes)), "%");
  layer("result_cache.hits_per_admit",
        Ratio(rc_hits, static_cast<double>(r1.admitted - r0.admitted)),
        "hits/admit");
  layer("result_cache.invalidated_per_write",
        Ratio(static_cast<double>(r1.invalidated - r0.invalidated), writes),
        "entries/write");
  layer("lookup.ms_per_query", t.lookup_ms / q, "ms");
  layer("chunk_cache.direct_pct", Pct(static_cast<double>(t.chunks_direct), req),
        "%");
  layer("chunk_cache.aggregated_pct",
        Pct(static_cast<double>(t.chunks_aggregated), req), "%");
  layer("chunk_cache.evictions_per_query",
        static_cast<double>(c1.evictions - c0.evictions) / q, "chunks/query");
  layer("chunk_cache.update_ms_per_query", t.update_ms / q, "ms");
  layer("tier.warm_pct", Pct(static_cast<double>(t.chunks_warm), req), "%");
  layer("tier.disk_pct", Pct(static_cast<double>(t.chunks_disk), req), "%");
  layer("tier.decode_ms_per_query", t.decode_ms / q, "ms");
  layer("tier.encode_us_per_demotion",
        Ratio(static_cast<double>(w1.encode_ns - w0.encode_ns) / 1e3,
              offers - gate_rejected),
        "us");
  layer("tier.compression_ratio",
        Ratio(static_cast<double>(w1.demoted_raw_bytes - w0.demoted_raw_bytes),
              static_cast<double>(w1.demoted_encoded_bytes -
                                  w0.demoted_encoded_bytes)),
        "x");
  layer("tier.gate_reject_pct", Pct(gate_rejected, offers), "%");
  layer("fold.ms_per_query", static_cast<double>(t.fold_ns) / 1e6 / q, "ms");
  layer("fold.ns_per_tuple",
        Ratio(static_cast<double>(t.fold_ns),
              static_cast<double>(t.tuples_aggregated)),
        "ns/tuple");
  layer("fold.tuples_per_query", static_cast<double>(t.tuples_aggregated) / q,
        "tuples/query");
  layer("fold.parallel_pct",
        Pct(static_cast<double>(after.morsels.parallel_runs -
                                before.morsels.parallel_runs),
            morsel_runs),
        "%");
  layer("single_flight.coalesced_pct",
        Pct(static_cast<double>(t.chunks_coalesced),
            static_cast<double>(t.chunks_backend)),
        "%");
  layer("backend.calls_per_query", static_cast<double>(backend_calls) / q,
        "calls/query");
  layer("backend.chunks_per_query",
        static_cast<double>(b1.chunks_returned - b0.chunks_returned) / q,
        "chunks/query");
  layer("backend.sim_ms_per_query", t.backend_sim_ms / q, "ms");
  layer("backend.tuples_scanned_per_query",
        static_cast<double>(b1.tuples_scanned - b0.tuples_scanned) / q,
        "tuples/query");
  layer("invalidation.entries_dropped_per_write",
        Ratio(static_cast<double>(t.entries_dropped), writes), "entries/write");
  double write_sum = 0.0;
  for (double w : t.write_ms) write_sum += w;
  layer("invalidation.ms_per_write", Ratio(write_sum, writes), "ms");

  std::string summary = "{}";
  if (tracer != nullptr) {
    const auto totals = tracer->Totals();
    const auto& kq = totals[static_cast<size_t>(SpanKind::kQuery)];
    const auto& kl = totals[static_cast<size_t>(SpanKind::kLookup)];
    const auto& km = totals[static_cast<size_t>(SpanKind::kMaintain)];
    const auto& kb = totals[static_cast<size_t>(SpanKind::kBackend)];
    const auto traced_q =
        static_cast<double>(std::max<int64_t>(t.traced_queries, 1));
    const double qps_on =
        Ratio(static_cast<double>(t.traced_queries), phase.traced_s());
    const double qps_off =
        Ratio(static_cast<double>(t.untraced_queries), phase.untraced_s());
    layer("engine.self_ms_per_query",
          static_cast<double>(tracer->EngineSelfNanos()) / 1e6 / traced_q,
          "ms");
    layer("lookup.find_plan_us",
          Ratio(static_cast<double>(kl.total_ns) / 1e3,
                static_cast<double>(kl.count)),
          "us");
    layer("lookup.nodes_per_call",
          Ratio(static_cast<double>(after.lookup_nodes - before.lookup_nodes),
                static_cast<double>(after.find_plan_calls -
                                    before.find_plan_calls)),
          "nodes/call");
    layer("maintain.events_per_query", static_cast<double>(km.count) / traced_q,
          "events/query");
    layer("maintain.us_per_event",
          Ratio(static_cast<double>(km.total_ns) / 1e3,
                static_cast<double>(km.count)),
          "us");
    layer("backend.real_ms_per_call",
          Ratio(static_cast<double>(kb.total_ns) / 1e6,
                static_cast<double>(kb.count)),
          "ms");
    layer("trace.overhead_pct", Pct(qps_off - qps_on, qps_off), "%");

    std::string spans = "{";
    for (int k = 0; k < kNumSpanKinds; ++k) {
      const KindTotals& kt = totals[static_cast<size_t>(k)];
      spans += std::string(k > 0 ? ", " : "") + "\"" +
               SpanKindName(static_cast<SpanKind>(k)) + "\": {\"count\": " +
               std::to_string(kt.count) +
               Fmt(", \"total_ms\": %.3f, \"self_ms\": %.3f}",
                   static_cast<double>(kt.total_ns) / 1e6,
                   static_cast<double>(kt.self_ns) / 1e6);
    }
    spans += "}";
    const RootArgs& p = t.traced_phases;
    summary =
        "{\"workload\": \"" + spec.name + "\", \"traced_queries\": " +
        std::to_string(kq.count) + ", \"dropped_spans\": " +
        std::to_string(tracer->DroppedSpans()) + ", \"spans\": " + spans +
        Fmt(", \"query_phases_ms\": {\"queue_wait\": %.3f, \"lookup\": %.3f",
            p.queue_wait_ms, p.lookup_ms) +
        Fmt(", \"aggregation\": %.3f, \"fold\": %.3f", p.aggregation_ms,
            p.fold_ms) +
        Fmt(", \"decode\": %.3f, \"update\": %.3f", p.decode_ms, p.update_ms) +
        Fmt(", \"backend_sim\": %.3f}", p.backend_sim_ms) +
        Fmt(", \"engine_self_ms\": %.3f}",
            static_cast<double>(tracer->EngineSelfNanos()) / 1e6);
    const std::string path = opt.results_dir + "/" + spec.name + ".trace.json";
    if (!tracer->WriteChromeTrace(path, summary)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "[%s] wrote %s\n", spec.name.c_str(), path.c_str());
  }

  auto value = [&m](const std::string& name) {
    for (const Metric& x : m) {
      if (x.name == name) return x.value;
    }
    return 0.0;
  };

  // ---- Checks ----
  std::vector<Check> checks;
  checks.push_back({"answers", mismatches == 0,
                    std::to_string(mismatches) + " of " +
                        std::to_string(kOracleSamples) +
                        " sampled answers differ from the backend fold"});
  checks.push_back({"status_ok", t.not_ok == 0,
                    std::to_string(t.not_ok) + " queries not resolved ok"});
  const bool invariants =
      exp.cache().ValidateInvariants() &&
      (exp.warm_tier() == nullptr || exp.warm_tier()->ValidateInvariants()) &&
      (exp.disk_tier() == nullptr || exp.disk_tier()->ValidateInvariants()) &&
      stack->results->ValidateInvariants();
  checks.push_back({"invariants", invariants,
                    "chunk cache, warm tier, disk tier, result cache"});
  const int64_t pins = exp.cache().TotalPinCount();
  checks.push_back({"no_pins", pins == 0, std::to_string(pins) + " pins"});
  const double budget = static_cast<double>(stack->budget_bytes);
  const double ws = static_cast<double>(working_set);
  const std::string ws_detail =
      Fmt("working set %.2f MB, B %.2f MB", ws / 1e6, budget / 1e6);
  // The floors below are set for the full-size stack; a smoke run's tiny
  // budgets cannot hold them.
  if (opt.smoke) {
  } else if (spec.name == "analyst") {
    // A session revisits a query it asked a few steps before: 14-18% of
    // probes hit in the baseline.
    checks.push_back({"result_cache_mostly_misses",
                      value("result_cache.hit_pct") <= 25.0,
                      Fmt("result_cache.hit_pct %.2f <= 25",
                          value("result_cache.hit_pct"))});
    checks.push_back({"folds_in_cache", value("chunk_cache.aggregated_pct") > 0,
                      Fmt("chunk_cache.aggregated_pct %.2f > 0",
                          value("chunk_cache.aggregated_pct"))});
    checks.push_back({"larger_than_cache", ws > budget, ws_detail});
  } else if (spec.name == "dashboard") {
    checks.push_back({"result_cache_answers",
                      value("result_cache.hit_pct") >= 70.0,
                      Fmt("result_cache.hit_pct %.2f >= 70",
                          value("result_cache.hit_pct"))});
  } else if (spec.name == "spill") {
    const double tiers = value("tier.warm_pct") + value("tier.disk_pct");
    checks.push_back({"tiers_answer", tiers >= 50.0,
                      Fmt("tier.warm_pct + tier.disk_pct %.2f >= 50", tiers)});
  } else if (spec.name == "refresh") {
    checks.push_back({"writes_invalidate",
                      value("invalidation.entries_dropped_per_write") > 0,
                      Fmt("invalidation.entries_dropped_per_write %.2f > 0",
                          value("invalidation.entries_dropped_per_write"))});
    checks.push_back({"fits_in_budget", ws < budget, ws_detail});
  }
  bool correct = true;
  for (const Check& c : checks) {
    correct = correct && c.ok;
    std::fprintf(stderr, "[%s] check %-26s %s  (%s)\n", spec.name.c_str(),
                 c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
  }
  std::fprintf(stderr, "[%s] %s\n", spec.name.c_str(), ws_detail.c_str());

  // ---- Output ----
  std::string out = "{\"workload\": \"" + spec.name + "\"";
  out += ", \"seed\": " + std::to_string(opt.seed);
  out += std::string(", \"trace\": ") + (opt.trace ? "true" : "false");
  out += std::string(", \"smoke\": ") + (opt.smoke ? "true" : "false");
  out += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += std::string(", \"avx2\": ") +
         (__builtin_cpu_supports("avx2") ? "true" : "false");
  out += ", \"correct\": " + std::string(correct ? "true" : "false");
  out += ", \"attempted\": " +
         std::to_string(t.queries + t.writes + kOracleSamples);
  out += ", \"failed\": " + std::to_string(t.not_ok + mismatches);
  out += Fmt(", \"info\": {\"seconds\": %.3f, \"timed_s\": %.6f", opt.seconds,
             elapsed);
  out += ", \"clients\": " + std::to_string(clients);
  out += ", \"queries\": " + std::to_string(t.queries);
  out += ", \"writes\": " + std::to_string(t.writes);
  out += ", \"tuples\": " + std::to_string(exp.table().num_tuples());
  out += ", \"budget_bytes\": " + std::to_string(stack->budget_bytes);
  out += ", \"hot_bytes\": " + std::to_string(exp.cache_bytes());
  out += ", \"warm_bytes\": " +
         std::to_string(exp.warm_tier() != nullptr
                            ? exp.warm_tier()->capacity_bytes()
                            : 0);
  out += ", \"result_bytes\": " +
         std::to_string(stack->results->capacity_bytes());
  out += ", \"disk_bytes\": " + std::to_string(spec.disk_bytes);
  out += ", \"working_set_bytes\": " + std::to_string(working_set);

  stack.reset();
  std::remove(config.spill_path.c_str());
  if (!opt.smoke) {
    // The stream depends only on the seed and the data, so the fresh
    // stacks reuse it.
    while (setup_s.size() < kSetupRepeats) {
      std::unique_ptr<Stack> extra;
      setup_s.push_back(SetUp(spec, config, opt.seed, arrivals, warmup,
                              nullptr, &extra, &stream, Clock::now()));
      extra.reset();
      std::remove(config.spill_path.c_str());
    }
  }
  for (size_t i = 0; i < setup_s.size(); ++i) {
    std::fprintf(stderr, "[%s] set-up %zu/%zu: %.3f s\n", spec.name.c_str(),
                 i + 1, setup_s.size(), setup_s[i]);
  }
  e2e("setup_s", Median(setup_s), "s", static_cast<int64_t>(setup_s.size()),
      "lower");
  out += "}, \"checks\": {";
  for (size_t i = 0; i < checks.size(); ++i) {
    out += std::string(i > 0 ? ", " : "") + "\"" + checks[i].name +
           "\": {\"ok\": " + (checks[i].ok ? "true" : "false") +
           ", \"detail\": \"" + JsonEscape(checks[i].detail) + "\"}";
  }
  out += "}, \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    char value_buf[64];
    std::snprintf(value_buf, sizeof(value_buf), "%.9g", m[i].value);
    out += std::string(i > 0 ? ", " : "") + "\"" + m[i].name +
           "\": {\"value\": " + value_buf + ", \"unit\": \"" + m[i].unit +
           "\", \"n\": " + std::to_string(m[i].n) + ", \"end_to_end\": " +
           (m[i].end_to_end ? "true" : "false") +
           (m[i].end_to_end ? std::string(", \"better\": \"") + m[i].better + "\""
                            : std::string()) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace aac::e2e

int main(int argc, char** argv) {
  const auto process_start = aac::e2e::Clock::now();
  aac::e2e::Options options;
  if (!aac::e2e::ParseOptions(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: aac_e2e --workload NAME --seed S --seconds T "
                 "[--trace] [--smoke] [--results-dir DIR]\n");
    return 2;
  }
  return aac::e2e::Run(options, process_start);
}
