#ifndef MUXWISE_HARNESS_STREAMING_H_
#define MUXWISE_HARNESS_STREAMING_H_

#include <cstdint>
#include <string>
#include <vector>

#include "harness/runner.h"
#include "serve/metrics.h"
#include "serve/quantile_sketch.h"

namespace muxwise::harness {

/** Clamped-exponential token-length distribution for synthetic streams:
 * min + Exp(mean - min), truncated at max. */
struct StreamingLengths {
  std::int64_t min = 8;
  double mean = 32.0;
  std::int64_t max = 128;
};

/**
 * A million-request-scale synthetic workload, generated lazily: the
 * driver holds ONE pending arrival event and the in-flight request
 * specs — never the whole trace — so memory is O(in-flight), not
 * O(total_requests). Requests are single-turn with Poisson arrivals;
 * lengths are deterministic in `seed`.
 */
struct StreamingSpec {
  std::uint64_t total_requests = 1'000'000;
  double rate_per_second = 100.0;
  StreamingLengths input{8, 32.0, 128};
  StreamingLengths output{2, 6.0, 16};
  std::uint64_t seed = 1;

  /**
   * Deterministic 1-in-K exact TTFT subsample (by request index) kept
   * alongside the sketch, sized for the sketch-vs-exact accuracy gate
   * (10^7 requests / 100 = 10^5 doubles). 0 disables the subsample.
   */
  std::uint64_t exact_subsample_period = 100;
};

/** What the streaming driver reports; the nightly smoke gates on it. */
struct StreamingOutcome {
  std::string engine;
  std::uint64_t total = 0;
  std::uint64_t completed = 0;
  bool stable = true;
  std::string diagnostic;

  serve::LatencySummary ttft;
  serve::LatencySummary tbt;
  serve::LatencySummary e2e;

  /** Full-population TTFT sketch (the accuracy gate's subject). */
  serve::QuantileSketch ttft_sketch;

  /** Exact 1-in-K TTFT samples (ms), in completion order. */
  std::vector<double> ttft_subsample_ms;

  /** Canonical sketch-state witness (see RunOutcome). */
  std::uint64_t metrics_state_digest = 0;
  bool metrics_overflowed = false;

  std::uint64_t event_digest = 0;
  std::size_t executed_events = 0;

  /** High-water mark of simultaneously in-flight request specs. */
  std::size_t peak_in_flight = 0;

  /** Bytes held by every metric sketch at end of run — the O(1)
   * metric-memory witness the nightly smoke asserts on. */
  std::size_t metric_bytes = 0;
};

/**
 * Drives `spec.total_requests` synthetic requests through an engine
 * built by MakeEngine, feeding completions straight into a sketch-backed
 * MetricsCollector. Arrivals self-schedule (each injects the next), so
 * the simulator queue and driver state stay O(in-flight) at any scale.
 * Respects config.event_budget as the livelock guard.
 */
StreamingOutcome RunStreamingWorkload(
    EngineKind kind, const serve::Deployment& deployment,
    const StreamingSpec& spec,
    const core::ContentionEstimator* shared_estimator,
    const RunConfig& config = RunConfig());

}  // namespace muxwise::harness

#endif  // MUXWISE_HARNESS_STREAMING_H_
