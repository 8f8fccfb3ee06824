#ifndef AAC_BENCH_E2E_WORKLOADS_H_
#define AAC_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/query.h"
#include "stack.h"
#include "storage/tuple.h"
#include "util/deadline.h"
#include "util/rng.h"
#include "workload/experiment.h"

namespace aac::e2e {

/// The fixed shape of one workload: budgets, clients and writes. The
/// queries themselves come from MakeStream.
struct WorkloadSpec {
  std::string name;
  /// B as a fraction of the base table's logical bytes.
  double budget_fraction = 0.0;
  int64_t disk_bytes = 0;  // D
  int clients = 1;
  /// Read arrivals between two write batches; 0 = read-only.
  int writes_every = 0;
  int write_tuples = 0;
  /// Arrivals the stream holds per second of the timed phase, about four
  /// times the seed program's rate; a run that outpaces it ends early.
  int64_t max_qps = 0;
};

/// Returns false for an unknown name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

/// The load one workload replays: distinct queries plus their arrival
/// order. Arrival i asks queries[order[i]]; the order holds every arrival
/// a run may take.
struct Stream {
  std::vector<Query> queries;
  std::vector<QueryClass> classes;  // per query
  std::vector<uint32_t> order;
  /// Independent analyst sessions interleaved in `order`: arrival i
  /// belongs to session i % sessions. 1 when arrivals are independent
  /// draws that any client may take.
  int sessions = 1;

  const Query& At(int64_t arrival) const {
    return queries[order[static_cast<size_t>(arrival)]];
  }
  QueryClass ClassAt(int64_t arrival) const {
    return classes[order[static_cast<size_t>(arrival)]];
  }
};

/// Builds the stream of `spec` over the stack's data with at least
/// `arrivals` arrivals. Deterministic in `seed`.
Stream MakeStream(const WorkloadSpec& spec, const Stack& stack, uint64_t seed,
                  int64_t arrivals);

/// Logical bytes of the distinct chunks that arrivals [first, last) touch,
/// at the size model's exact per-chunk sizes.
int64_t WorkingSetBytes(const Experiment& exp, const Stream& stream,
                        int64_t first, int64_t last);

/// One batch of new base-level fact tuples (uniform leaf values, integer
/// measures like the generator's), drawn from `rng`.
std::vector<Cell> MakeWriteBatch(const Schema& schema, int tuples, Rng& rng);

}  // namespace aac::e2e

#endif  // AAC_BENCH_E2E_WORKLOADS_H_
