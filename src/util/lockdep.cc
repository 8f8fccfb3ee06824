#include "util/lockdep.h"

#if defined(AAC_LOCKDEP)

#include <fcntl.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace aac {
namespace lockdep {
namespace {

// ---------------------------------------------------------------------------
// Per-thread held-lock stack. Fixed-size: no allocation on the acquire path,
// and a depth past kMaxHeld is itself a bug worth aborting on.
// ---------------------------------------------------------------------------

struct HeldLock {
  const void* lock;
  LockRank rank;
  const char* name;
  const char* file;
  int line;
  bool try_acquired;
};

constexpr int kMaxHeld = 32;
thread_local HeldLock g_held[kMaxHeld];
thread_local int g_held_count = 0;

// ---------------------------------------------------------------------------
// Global lock-order graph, keyed by (from name, to name). Guarded by a
// spinlock rather than an aac::Mutex: the wrappers call into lockdep on
// every acquisition, so lockdep's own lock must live below the wrapper
// layer (and an atomic_flag spin is invisible to the ordering model by
// construction). The map is leaked deliberately — the atexit dump and
// detached threads may record edges during static destruction.
// ---------------------------------------------------------------------------

struct Edge {
  uint16_t from_rank;
  uint16_t to_rank;
  uint64_t count;
  std::string from_site;  // first-seen sites
  std::string to_site;
};

using EdgeKey = std::pair<std::string, std::string>;

std::atomic_flag g_graph_lock = ATOMIC_FLAG_INIT;

class GraphGuard {
 public:
  GraphGuard() {
    while (g_graph_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~GraphGuard() { g_graph_lock.clear(std::memory_order_release); }
  GraphGuard(const GraphGuard&) = delete;
  GraphGuard& operator=(const GraphGuard&) = delete;
};

std::map<EdgeKey, Edge>& Graph() {
  static auto* graph = new std::map<EdgeKey, Edge>();
  return *graph;
}

// Per-thread memo of name pairs already recorded by this thread, so the hot
// path touches the global map (and its spinlock) once per pair per thread.
// Lock names are string literals, so pointer identity is a safe proxy.
thread_local std::vector<std::pair<const char*, const char*>> g_seen_pairs;

std::string SiteString(const char* file, int line) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%s:%d", file, line);
  return std::string(buf);
}

void DumpAtExit() {
  const char* path = std::getenv("AAC_LOCKDEP_DUMP");
  if (path != nullptr && path[0] != '\0') DumpEdges(path);
}

void RecordEdge(const HeldLock& held, LockRank rank, const char* name,
                const char* file, int line) {
  for (const auto& seen : g_seen_pairs) {
    if (seen.first == held.name && seen.second == name) return;
  }
  g_seen_pairs.emplace_back(held.name, name);

  static std::atomic<bool> atexit_registered{false};
  if (!atexit_registered.exchange(true)) std::atexit(&DumpAtExit);

  GraphGuard guard;
  auto [it, inserted] = Graph().try_emplace(
      EdgeKey(held.name, name),
      Edge{static_cast<uint16_t>(held.rank), static_cast<uint16_t>(rank), 0,
           SiteString(held.file, held.line), SiteString(file, line)});
  ++it->second.count;
}

[[noreturn]] void ReportViolation(const char* kind, const HeldLock& held,
                                  LockRank rank, const char* name,
                                  const char* file, int line) {
  std::fprintf(
      stderr,
      "lockdep: %s\n"
      "  acquiring \"%s\" (rank %u %s) at %s:%d\n"
      "  while holding \"%s\" (rank %u %s%s) acquired at %s:%d\n"
      "  held stack (outermost first):\n",
      kind, name, static_cast<unsigned>(rank), LockRankName(rank), file, line,
      held.name, static_cast<unsigned>(held.rank), LockRankName(held.rank),
      held.try_acquired ? ", try-acquired" : "", held.file, held.line);
  for (int i = 0; i < g_held_count; ++i) {
    const HeldLock& h = g_held[i];
    std::fprintf(stderr, "    [%d] \"%s\" (rank %u %s%s) at %s:%d\n", i,
                 h.name, static_cast<unsigned>(h.rank), LockRankName(h.rank),
                 h.try_acquired ? ", try-acquired" : "", h.file, h.line);
  }
  std::abort();
}

}  // namespace

void OnAcquire(const void* lock, LockRank rank, const char* name,
               bool try_acquired, const char* file, int line) {
  if (g_held_count >= kMaxHeld) {
    std::fprintf(stderr,
                 "lockdep: held-lock stack overflow (%d locks) acquiring "
                 "\"%s\" at %s:%d\n",
                 g_held_count, name, file, line);
    std::abort();
  }
  if (!try_acquired) {
    for (int i = 0; i < g_held_count; ++i) {
      const HeldLock& h = g_held[i];
      if (h.lock == lock) {
        ReportViolation("recursive acquisition", h, rank, name, file, line);
      }
      const bool ordered =
          h.rank < rank ||
          (h.rank == rank && reinterpret_cast<uintptr_t>(h.lock) <
                                 reinterpret_cast<uintptr_t>(lock));
      if (!ordered) {
        ReportViolation("lock-order violation", h, rank, name, file, line);
      }
    }
    for (int i = 0; i < g_held_count; ++i) {
      RecordEdge(g_held[i], rank, name, file, line);
    }
  }
  g_held[g_held_count++] = HeldLock{lock, rank, name, file, line,
                                    try_acquired};
}

void OnRelease(const void* lock) {
  for (int i = g_held_count - 1; i >= 0; --i) {
    if (g_held[i].lock != lock) continue;
    for (int j = i; j + 1 < g_held_count; ++j) g_held[j] = g_held[j + 1];
    --g_held_count;
    return;
  }
  std::fprintf(stderr,
               "lockdep: releasing a lock this thread does not hold — an "
               "acquisition bypassed the aac::Mutex wrappers\n");
  std::abort();
}

void OnCondVarWait(const void* lock) {
  if (g_held_count > 0 && g_held[g_held_count - 1].lock == lock) return;
  for (int i = 0; i < g_held_count; ++i) {
    if (g_held[i].lock != lock) continue;
    std::fprintf(stderr,
                 "lockdep: CondVar wait on non-innermost lock \"%s\" "
                 "(acquired at %s:%d) — the wait's reacquire would invert "
                 "order against the %d lock(s) acquired after it\n",
                 g_held[i].name, g_held[i].file, g_held[i].line,
                 g_held_count - 1 - i);
    std::abort();
  }
  std::fprintf(stderr,
               "lockdep: CondVar wait on a lock this thread does not hold\n");
  std::abort();
}

int HeldCount() { return g_held_count; }

bool HasEdge(const char* from, const char* to) {
  GraphGuard guard;
  return Graph().count(EdgeKey(from, to)) > 0;
}

void DumpEdges(const std::string& path) {
  std::string out;
  {
    GraphGuard guard;
    for (const auto& [key, edge] : Graph()) {
      char buf[1024];
      std::snprintf(buf, sizeof(buf),
                    "edge\t%s\t%u\t%s\t%u\t%llu\t%s\t%s\n", key.first.c_str(),
                    static_cast<unsigned>(edge.from_rank), key.second.c_str(),
                    static_cast<unsigned>(edge.to_rank),
                    static_cast<unsigned long long>(edge.count),
                    edge.from_site.c_str(), edge.to_site.c_str());
      out += buf;
    }
  }
  if (out.empty()) return;
  // O_APPEND + one write(): concurrent test binaries dumping into the same
  // file (tools/check.sh asan) interleave at line granularity.
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  ssize_t written = 0;
  while (written < static_cast<ssize_t>(out.size())) {
    const ssize_t n =
        ::write(fd, out.data() + written, out.size() - written);
    if (n <= 0) break;
    written += n;
  }
  ::close(fd);
}

void ResetGraphForTest() {
  GraphGuard guard;
  Graph().clear();
  g_seen_pairs.clear();
}

}  // namespace lockdep
}  // namespace aac

#endif  // defined(AAC_LOCKDEP)
