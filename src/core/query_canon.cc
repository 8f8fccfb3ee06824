#include "core/query_canon.h"

#include <cstdint>

#include "util/check.h"
#include "util/fnv1a.h"

namespace aac {

namespace {

// Folds `v` into the FNV-1a digest `h` least significant byte first, so
// the digest is layout-independent.
void Mix(uint64_t& h, uint64_t v) {
  uint8_t bytes[8];
  for (int i = 0; i < 8; ++i) bytes[i] = static_cast<uint8_t>(v >> (i * 8));
  h = Fnv1a(bytes, sizeof(bytes), h);
}

}  // namespace

ResultCacheKey CanonicalResultKey(const Schema& schema, const Query& query) {
  const int nd = schema.num_dims();
  AAC_DCHECK_EQ(query.level.size(), nd);
  ResultCacheKey key;
  key.level = query.level;
  for (int d = 0; d < nd; ++d) {
    const Dimension& dim = schema.dimension(d);
    int level = query.level[d];
    // Equal cardinality between adjacent levels forces the parent map to be
    // the identity (monotone non-decreasing + surjective), so the group-by
    // cells and the value-id ranges are unchanged one level up; collapse to
    // the most aggregated equivalent spelling.
    while (level > 0 && dim.cardinality(level) == dim.cardinality(level - 1)) {
      --level;
    }
    key.level.Set(d, level);
    key.ranges[static_cast<size_t>(d)] = query.ranges[static_cast<size_t>(d)];
  }
  // Slots at and beyond nd stay value-initialized {0, 0}.

  uint64_t h = kFnv1aOffsetBasis;
  Mix(h, static_cast<uint64_t>(nd));
  for (int d = 0; d < nd; ++d) {
    Mix(h, static_cast<uint64_t>(key.level[d]));
    Mix(h, static_cast<uint64_t>(
               static_cast<uint32_t>(key.ranges[static_cast<size_t>(d)].first)));
    Mix(h, static_cast<uint64_t>(static_cast<uint32_t>(
               key.ranges[static_cast<size_t>(d)].second)));
  }
  key.digest = h;
  return key;
}

}  // namespace aac
