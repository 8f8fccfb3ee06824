#ifndef AAC_CACHE_REPLACEMENT_H_
#define AAC_CACHE_REPLACEMENT_H_

#include "cache/cache_entry.h"

namespace aac {

/// Strategy hooks for the chunk cache's weighted CLOCK (ClockRing): the
/// policy grants every entry its clock value on insert and on each hit, and
/// sorts entries into victim classes, which is how the paper's two-level
/// priority classes are expressed.
class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  /// Clock value granted on insert and restored on every cache hit.
  /// Expected to be a small bounded weight (see NormalizedWeight).
  virtual double ClockValue(const CacheEntryInfo& entry) const = 0;

  /// Number of victim priority classes (>= 1). Eviction exhausts class 0
  /// before considering class 1, and so on.
  virtual int num_victim_classes() const { return 1; }

  /// Class of an entry as an eviction victim; lower classes go first.
  virtual int VictimClass(const CacheEntryInfo& entry) const {
    (void)entry;
    return 0;
  }

  /// True if `incoming` may evict the entries of `victim_class`. This is
  /// the replacement rule: an incoming chunk may evict exactly the unpinned
  /// entries of the classes it may replace, so the cache rejects a hopeless
  /// insert from the classes' byte totals without sweeping.
  virtual bool MayReplaceClass(const CacheEntryInfo& incoming,
                               int victim_class) const {
    (void)incoming;
    (void)victim_class;
    return true;
  }

  /// Compresses a raw tuple-cost benefit into a bounded clock weight
  /// (log-scaled to [1, 32]); keeps sweep counts independent of absolute
  /// workload sizes.
  static double NormalizedWeight(double benefit_tuples);
};

/// The plain benefit-based policy from [DRSN98]: clock weight grows with the
/// chunk's recomputation cost (highly aggregated chunks are the most
/// expensive to recreate, hence kept longest); anything may replace
/// anything.
class BenefitPolicy : public ReplacementPolicy {
 public:
  double ClockValue(const CacheEntryInfo& entry) const override;
};

/// Plain CLOCK (≈ LRU): every entry gets the same weight regardless of its
/// recomputation cost. The classic baseline the benefit policy of [DRSN98]
/// was measured against.
class LruPolicy : public ReplacementPolicy {
 public:
  double ClockValue(const CacheEntryInfo& entry) const override;
};

/// GreedyDual-Size-flavoured baseline: weight grows with benefit *density*
/// (benefit per byte), so small expensive chunks outlive large cheap ones.
/// Not from the paper; included for the policy ablation benchmark.
class SizeAwarePolicy : public ReplacementPolicy {
 public:
  double ClockValue(const CacheEntryInfo& entry) const override;
};

/// The paper's two-level policy (Section 6.3): backend-fetched chunks can
/// replace cache-computed chunks but not vice versa; within a class the
/// benefit weighting applies.
class TwoLevelPolicy : public BenefitPolicy {
 public:
  /// Cache-computed chunks (class 0) are evicted before backend chunks
  /// (class 1).
  int num_victim_classes() const override { return 2; }
  int VictimClass(const CacheEntryInfo& entry) const override {
    return entry.source == ChunkSource::kBackend ? 1 : 0;
  }
  /// Cache-computed chunks must not displace backend chunks: the fetch
  /// they would force costs far more than re-running an in-cache
  /// aggregation.
  bool MayReplaceClass(const CacheEntryInfo& incoming,
                       int victim_class) const override {
    return !(incoming.source == ChunkSource::kCacheComputed &&
             victim_class == 1);
  }
};

}  // namespace aac

#endif  // AAC_CACHE_REPLACEMENT_H_
