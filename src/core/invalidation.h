#ifndef AAC_CORE_INVALIDATION_H_
#define AAC_CORE_INVALIDATION_H_

#include <cstdint>
#include <vector>

#include "cache/chunk_cache.h"
#include "cache/result_cache.h"
#include "storage/fact_table.h"

namespace aac {

/// The middle tier's write protocol for a growing fact table (an extension
/// beyond the paper, which assumed static data). Inserts only: SUM, COUNT,
/// MIN and MAX are distributive, so a cached chunk absorbs new fact tuples
/// from the tuples alone.
///
/// 1. `table` takes the batch (FactTable::ApplyInserts).
/// 2. When `results` is non-null, every cached query answer derived from a
///    changed base chunk is dropped (ResultCache::InvalidateForBaseChunks).
///    This runs first: patching a chunk fires OnUpdate, which would drop
///    the same answers without counting them here.
/// 3. For each group-by, the batch is rolled up once (ancestor values, then
///    target chunk), and each target chunk's cells go to ChunkCache::Patch,
///    one lookup per tier. The closure property maps a changed base chunk
///    to exactly one chunk per group-by, so these are all the cached chunks
///    the batch touches. A hot-resident entry merges the cells in place,
///    or is removed when its grown entry does not fit its shard; either
///    way its lower-tier copies are purged. A key that is not hot-resident
///    hands the cells to the demotion sink (DemotionSink::OnWrite): the
///    warm tier keeps a RAM copy with the cells pending beside its blob,
///    merged when the copy is probed, and purges a disk copy.
///
/// Count/cost maintenance (VCM/VCMC) rides along through the cache's
/// listeners: OnUpdate for a patch, OnEvict for a removal.
///
/// Concurrency contract: writes are quiescent. No query may run while this
/// executes — FactTable has no lock, a pinned affected entry aborts (Patch
/// checks), and so does a warm copy with a decode in flight (OnWrite
/// checks). Callers apply writes at a barrier, as bench/e2e does. A
/// per-base-chunk data epoch that would lift this is ROADMAP item 3.
///
/// Patched chunks equal a refetch exactly when the measures' partial sums
/// are exact in a double (integer measures, as in APB-1); otherwise they
/// differ from a refetch by summation order only.
///
/// Returns the number of entries dropped: result-cache answers plus
/// hot-resident chunks removed because their growth did not fit. Patched
/// chunks (CacheStats::patched) and kept warm copies
/// (WarmTierStats::appended_runs) are not counted.
int64_t ApplyFactUpdates(FactTable* table, ChunkCache* cache,
                         const std::vector<Cell>& new_tuples,
                         ResultCache* results = nullptr);

}  // namespace aac

#endif  // AAC_CORE_INVALIDATION_H_
