#ifndef AAC_BENCH_E2E_TRACE_H_
#define AAC_BENCH_E2E_TRACE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace aac::e2e {

/// What a span covers. The two roots are opened by the load generator;
/// the other four by the decorators that wrap the stack's public seams.
enum class SpanKind : uint8_t {
  kQuery,     // one ConcurrentQueryEngine::ExecuteQuery call
  kWrite,     // one ApplyFactUpdates batch
  kBackend,   // Backend::ExecuteChunkQuery
  kLookup,    // LookupStrategy::FindPlan
  kMaintain,  // VCMC's CacheListener events
  kDemote,    // DemotionSink::OnDemote (the warm tier)
};
inline constexpr int kNumSpanKinds = 6;
const char* SpanKindName(SpanKind kind);

/// Phases the benchmark cannot wrap from outside, copied from the query's
/// QueryStats onto its root span.
struct RootArgs {
  double queue_wait_ms = 0.0;
  double lookup_ms = 0.0;  // includes the result-cache probe
  double aggregation_ms = 0.0;
  double fold_ms = 0.0;
  double decode_ms = 0.0;
  double update_ms = 0.0;
  double backend_sim_ms = 0.0;
  bool result_hit = false;

  /// Sums the phases (result_hit is left alone).
  RootArgs& operator+=(const RootArgs& o) {
    queue_wait_ms += o.queue_wait_ms;
    lookup_ms += o.lookup_ms;
    aggregation_ms += o.aggregation_ms;
    fold_ms += o.fold_ms;
    decode_ms += o.decode_ms;
    update_ms += o.update_ms;
    backend_sim_ms += o.backend_sim_ms;
    return *this;
  }
};

/// Per-kind totals over every span recorded.
struct KindTotals {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t self_ns = 0;  // total minus the time direct children cover
};

/// In-memory span recorder with one buffer per thread.
///
/// A span is recorded only inside a root opened while recording is
/// enabled, on the same thread; everything else is a no-op. Closing a span
/// charges its duration to its parent's covered time, so per-kind self time
/// is exact without keeping the spans. Up to `max_stored_per_thread` spans
/// per thread are also kept for the Chrome trace.
///
/// Threading: each thread writes only its own buffer. Totals(), the engine
/// self time and WriteChromeTrace() read every buffer and must run after
/// the recording threads are joined.
class Tracer {
 public:
  explicit Tracer(size_t max_stored_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;
  ~Tracer();

  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a root span for query or write `id` when recording is enabled;
  /// returns whether it did. Roots do not nest.
  bool BeginRoot(SpanKind kind, int64_t id);

  /// Closes the open root. A query root passes its `args`, which are
  /// attached to the span, and the engine's own time is derived: the root
  /// minus the QueryStats phases minus the backend calls, which run outside
  /// every phase. A write root passes null.
  void EndRoot(const RootArgs* args);

  /// RAII child span; a no-op unless a root is open on this thread.
  class Span {
   public:
    Span(Tracer& tracer, SpanKind kind);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer& tracer_;
    bool open_ = false;
  };

  std::array<KindTotals, kNumSpanKinds> Totals() const;

  /// Sum over query roots of the engine's own time (see EndRoot).
  int64_t EngineSelfNanos() const;

  /// Spans dropped from the Chrome trace because a buffer was full.
  int64_t DroppedSpans() const;

  /// Writes the kept spans as Chrome-trace JSON ("X" events, one track per
  /// thread) plus `summary`, a JSON object, under "summary".
  bool WriteChromeTrace(const std::string& path,
                        const std::string& summary) const;

 private:
  struct ThreadBuffer;

  ThreadBuffer& Local();
  void Push(SpanKind kind, int64_t id);
  void Pop(const RootArgs* args);

  const size_t max_stored_per_thread_;
  const int64_t epoch_ns_;
  uint64_t serial_ = 0;
  std::atomic<bool> enabled_{false};
  mutable std::mutex buffers_mutex_;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

}  // namespace aac::e2e

#endif  // AAC_BENCH_E2E_TRACE_H_
