#include "cache/replacement.h"

#include <algorithm>
#include <cmath>

namespace aac {

double ReplacementPolicy::NormalizedWeight(double benefit_tuples) {
  const double w = 1.0 + std::log2(std::max(0.0, benefit_tuples) + 1.0);
  return std::clamp(w, 1.0, 32.0);
}

double BenefitPolicy::ClockValue(const CacheEntryInfo& entry) const {
  return NormalizedWeight(entry.benefit);
}

double LruPolicy::ClockValue(const CacheEntryInfo& entry) const {
  (void)entry;
  return 1.0;
}

double SizeAwarePolicy::ClockValue(const CacheEntryInfo& entry) const {
  const double density =
      entry.benefit / static_cast<double>(std::max<int64_t>(entry.bytes, 1));
  return NormalizedWeight(density * 64.0);
}

}  // namespace aac
