#include "trace.h"

#include <chrono>
#include <cstdio>

namespace aac::e2e {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t MsToNs(double ms) { return static_cast<int64_t>(ms * 1e6); }

// Tracers get a process-unique serial so a thread's cached buffer can never
// be mistaken for one of a later tracer allocated at the same address.
std::atomic<uint64_t> next_serial{1};

struct TlsSlot {
  uint64_t serial = 0;
  void* buffer = nullptr;
};
thread_local TlsSlot tls;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kQuery:
      return "query";
    case SpanKind::kWrite:
      return "write";
    case SpanKind::kBackend:
      return "backend";
    case SpanKind::kLookup:
      return "lookup";
    case SpanKind::kMaintain:
      return "maintain";
    case SpanKind::kDemote:
      return "demote";
  }
  return "?";
}

struct Tracer::ThreadBuffer {
  struct Frame {
    SpanKind kind;
    int64_t id;
    int64_t parent;
    int64_t start_ns;
    int64_t child_ns = 0;
    int64_t backend_ns = 0;  // roots only: backend calls anywhere below
  };
  struct Stored {
    SpanKind kind;
    int64_t id;
    int64_t parent;
    int64_t root_id;
    int64_t start_ns;
    int64_t end_ns;
    int32_t args_index;  // into `args`, roots only; -1 otherwise
  };

  int tid = 0;
  int64_t next_seq = 0;
  int64_t root_id = -1;
  std::vector<Frame> stack;
  std::vector<Stored> stored;
  std::vector<RootArgs> args;
  std::array<KindTotals, kNumSpanKinds> totals{};
  int64_t engine_self_ns = 0;
  int64_t dropped = 0;
};

Tracer::Tracer(size_t max_stored_per_thread)
    : max_stored_per_thread_(max_stored_per_thread), epoch_ns_(NowNs()) {
  serial_ = next_serial.fetch_add(1, std::memory_order_relaxed);
}

Tracer::~Tracer() = default;

Tracer::ThreadBuffer& Tracer::Local() {
  if (tls.serial != serial_) {
    std::lock_guard<std::mutex> lock(buffers_mutex_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<int>(buffers_.size());
    tls.serial = serial_;
    tls.buffer = buffers_.back().get();
  }
  return *static_cast<ThreadBuffer*>(tls.buffer);
}

void Tracer::Push(SpanKind kind, int64_t root_id) {
  ThreadBuffer& b = Local();
  if (b.stack.empty()) b.root_id = root_id;
  const int64_t id = (static_cast<int64_t>(b.tid) << 40) | b.next_seq++;
  const int64_t parent = b.stack.empty() ? -1 : b.stack.back().id;
  b.stack.push_back(ThreadBuffer::Frame{kind, id, parent, NowNs()});
}

void Tracer::Pop(const RootArgs* args) {
  const int64_t end = NowNs();
  ThreadBuffer& b = *static_cast<ThreadBuffer*>(tls.buffer);
  const ThreadBuffer::Frame f = b.stack.back();
  b.stack.pop_back();
  const int64_t dur = end - f.start_ns;
  KindTotals& t = b.totals[static_cast<size_t>(f.kind)];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - f.child_ns;
  if (!b.stack.empty()) {
    b.stack.back().child_ns += dur;
    if (f.kind == SpanKind::kBackend) b.stack.front().backend_ns += dur;
  } else if (args != nullptr) {
    b.engine_self_ns +=
        dur - f.backend_ns -
        MsToNs(args->queue_wait_ms + args->lookup_ms + args->aggregation_ms +
               args->update_ms);
  }
  if (b.stored.size() >= max_stored_per_thread_) {
    ++b.dropped;
    return;
  }
  int32_t args_index = -1;
  if (b.stack.empty() && args != nullptr) {
    args_index = static_cast<int32_t>(b.args.size());
    b.args.push_back(*args);
  }
  b.stored.push_back(ThreadBuffer::Stored{f.kind, f.id, f.parent, b.root_id,
                                          f.start_ns, end, args_index});
}

bool Tracer::BeginRoot(SpanKind kind, int64_t id) {
  if (!enabled()) return false;
  Push(kind, id);
  return true;
}

void Tracer::EndRoot(const RootArgs* args) { Pop(args); }

Tracer::Span::Span(Tracer& tracer, SpanKind kind) : tracer_(tracer) {
  // A thread that never opened a root under this tracer has no buffer;
  // checking the serial first keeps such threads from registering one.
  if (tls.serial != tracer_.serial_) return;
  auto& b = *static_cast<ThreadBuffer*>(tls.buffer);
  if (b.stack.empty()) return;
  tracer_.Push(kind, b.root_id);
  open_ = true;
}

Tracer::Span::~Span() {
  if (open_) tracer_.Pop(nullptr);
}

std::array<KindTotals, kNumSpanKinds> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  std::array<KindTotals, kNumSpanKinds> out{};
  for (const auto& b : buffers_) {
    for (size_t k = 0; k < out.size(); ++k) {
      out[k].count += b->totals[k].count;
      out[k].total_ns += b->totals[k].total_ns;
      out[k].self_ns += b->totals[k].self_ns;
    }
  }
  return out;
}

int64_t Tracer::EngineSelfNanos() const {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  int64_t sum = 0;
  for (const auto& b : buffers_) sum += b->engine_self_ns;
  return sum;
}

int64_t Tracer::DroppedSpans() const {
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  int64_t sum = 0;
  for (const auto& b : buffers_) sum += b->dropped;
  return sum;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& summary) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(buffers_mutex_);
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& b : buffers_) {
    std::fprintf(f,
                 "%s{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"name\": \"thread %d\"}}",
                 first ? "" : ",\n", b->tid, b->tid);
    first = false;
    for (const ThreadBuffer::Stored& s : b->stored) {
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"cat\": \"e2e\", \"ph\": \"X\", "
                   "\"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, "
                   "\"args\": {\"id\": %lld, \"parent\": %lld, \"root\": %lld",
                   SpanKindName(s.kind), b->tid,
                   static_cast<double>(s.start_ns - epoch_ns_) / 1e3,
                   static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                   static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.root_id));
      if (s.args_index >= 0) {
        const RootArgs& a = b->args[static_cast<size_t>(s.args_index)];
        std::fprintf(f,
                     ", \"queue_wait_ms\": %.6f, \"lookup_ms\": %.6f, "
                     "\"aggregation_ms\": %.6f, \"fold_ms\": %.6f, "
                     "\"decode_ms\": %.6f, \"update_ms\": %.6f, "
                     "\"backend_sim_ms\": %.6f, \"result_hit\": %s",
                     a.queue_wait_ms, a.lookup_ms, a.aggregation_ms,
                     a.fold_ms, a.decode_ms, a.update_ms, a.backend_sim_ms,
                     a.result_hit ? "true" : "false");
      }
      std::fprintf(f, "}}");
    }
  }
  std::fprintf(f, "\n], \"summary\": %s}\n", summary.c_str());
  return std::fclose(f) == 0;
}

}  // namespace aac::e2e
