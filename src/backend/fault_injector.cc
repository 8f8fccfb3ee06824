#include "backend/fault_injector.h"

#include <utility>

#include "util/check.h"

namespace aac {

FaultInjectingBackend::FaultInjectingBackend(Backend* inner,
                                             const FaultConfig& config,
                                             SimClock* clock)
    : inner_(inner), config_(config), clock_(clock), rng_(config.seed) {
  AAC_CHECK(inner != nullptr);
  AAC_CHECK_GE(config.transient_error_rate, 0.0);
  AAC_CHECK_GE(config.timeout_rate, 0.0);
  AAC_CHECK_GE(config.partial_result_rate, 0.0);
  AAC_CHECK_GE(config.latency_spike_rate, 0.0);
  AAC_CHECK_LE(config.transient_error_rate + config.timeout_rate +
                   config.partial_result_rate + config.latency_spike_rate,
               1.0);
}

BackendResult FaultInjectingBackend::ExecuteChunkQuery(
    GroupById gb, const std::vector<ChunkId>& chunks) {
  // Serialized: the fault schedule is a single Rng sequence, so under
  // concurrency the k-th backend call system-wide still draws the k-th
  // variate. Every injected delay lands in the result's charged_nanos on
  // top of the inner backend's own charge.
  MutexLock lock(mutex_);
  ++stats_.calls;
  // One variate per call partitions [0,1) into the fault classes, so the
  // schedule depends only on the seed and the call sequence.
  const double u = rng_.UniformDouble();
  double edge = config_.transient_error_rate;
  if (u < edge) {
    ++stats_.transient_errors;
    if (clock_ != nullptr) clock_->Charge(config_.error_latency_ns);
    return BackendResult{BackendStatus::kTransientError, {},
                         config_.error_latency_ns};
  }
  edge += config_.timeout_rate;
  if (u < edge) {
    ++stats_.timeouts;
    if (clock_ != nullptr) clock_->Charge(config_.timeout_ns);
    return BackendResult{BackendStatus::kTimeout, {}, config_.timeout_ns};
  }
  edge += config_.partial_result_rate;
  if (u < edge) {
    ++stats_.partials;
    std::vector<ChunkId> kept;
    kept.reserve(chunks.size());
    for (ChunkId chunk : chunks) {
      if (rng_.Bernoulli(config_.partial_keep_fraction)) kept.push_back(chunk);
    }
    if (kept.empty()) {
      // Nothing survived: surface it as a fast transient error, not an
      // empty "success" the caller could mistake for a full answer.
      if (clock_ != nullptr) clock_->Charge(config_.error_latency_ns);
      return BackendResult{BackendStatus::kTransientError, {},
                           config_.error_latency_ns};
    }
    BackendResult result = inner_->ExecuteChunkQuery(gb, kept);
    if (result.status == BackendStatus::kOk &&
        kept.size() < chunks.size()) {
      result.status = BackendStatus::kPartial;
    }
    return result;
  }
  edge += config_.latency_spike_rate;
  if (u < edge) {
    constexpr int64_t kLatencySpikeNanos = 25'000'000;
    ++stats_.latency_spikes;
    if (clock_ != nullptr) clock_->Charge(kLatencySpikeNanos);
    BackendResult result = inner_->ExecuteChunkQuery(gb, chunks);
    result.charged_nanos += kLatencySpikeNanos;
    return result;
  }
  ++stats_.clean;
  return inner_->ExecuteChunkQuery(gb, chunks);
}

}  // namespace aac
