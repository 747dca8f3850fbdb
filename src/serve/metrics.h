#ifndef MUXWISE_SERVE_METRICS_H_
#define MUXWISE_SERVE_METRICS_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/invariant_registry.h"
#include "serve/quantile_sketch.h"
#include "serve/request.h"
#include "sim/time.h"
#include "workload/slo.h"

namespace muxwise::serve {

/**
 * Percentile over a sample vector (p in [0,1]); 0 for empty input.
 * Linear interpolation between closest ranks (the "exclusive of the
 * copy-and-sort" form of R-7): rank p * (n - 1) splits into its floor
 * and ceiling neighbours, blended by the fractional part — so p50 of
 * {1, 2} is 1.5, not 1 or 2, and a single sample is every percentile.
 */
double Percentile(std::vector<double> samples, double p);

/**
 * Mean/p50/p99 of one latency population (zeros when empty). Kept for
 * callers that already hold a sample vector; the metrics pipeline
 * itself summarises through QuantileSketch::Summarize(), which returns
 * bit-identical values on the exact tier without copying per call.
 */
LatencySummary Summarize(const std::vector<double>& samples_ms);

/**
 * Goodput split by terminal disposition (paper's goodput, degraded by
 * faults): only `attained` requests carry latency samples and count
 * toward throughput; the other three are the failure-recovery layer's
 * degraded outcomes.
 */
struct GoodputSplit {
  std::size_t attained = 0;
  std::size_t timed_out = 0;
  std::size_t shed = 0;
  std::size_t failed = 0;

  std::size_t total() const { return attained + timed_out + shed + failed; }
};

/**
 * Per-SLO-class slice of the goodput split plus the queue-delay and
 * TTFT populations the overload-control evaluation reports
 * (interactive must degrade last: attainment ordered interactive >=
 * standard >= batch under overload). TTFT attainment against the
 * per-prompt target slo.TtftTargetFor(prompt) is counted at ingest by
 * MetricsCollector (against its bound SLO), so the slice stays O(1)
 * in requests instead of keeping a (TTFT, prompt-tokens) pair per
 * request.
 */
struct ClassMetrics {
  GoodputSplit split;

  /** Queue delay (arrival -> prefill start) of attained requests, ms. */
  QuantileSketch queue_delay;

  /** TTFT of attained requests, ms. */
  QuantileSketch ttft;

  /** Attained requests whose TTFT met slo.TtftTargetFor(prompt). */
  std::size_t ttft_attained = 0;

  /** p99 queue delay (exact below the sketch's exact-tier capacity). */
  double QueueDelayP99() const { return queue_delay.Quantile(0.99); }

  std::size_t TtftAttained() const { return ttft_attained; }

  /** TtftAttained / total arrivals of the class (1.0 when empty). */
  double Attainment() const;
};

/**
 * Collects per-request latency stamps and derives the evaluation
 * metrics of the paper: TTFT, TBT (per-token gaps, strict), TPOT
 * (per-request average), E2E, token throughput, and TBT SLO attainment.
 *
 * Populations live in QuantileSketch instances: exact (bit-identical
 * to the historical full-sample path) below the sketch's exact-tier
 * capacity, bounded-error histograms past it — so memory is O(1) in
 * the number of requests and 10^7-request scenarios stream through
 * without accumulating samples.
 *
 * Requests arriving with a degraded Outcome (timed-out / shed / failed)
 * are tallied in the goodput split but contribute no latency samples:
 * they never produced the tokens the SLO populations measure.
 */
class MetricsCollector {
 public:
  /** Collects against the default SLO targets. */
  MetricsCollector() = default;

  /**
   * Binds the SLO whose per-prompt TTFT targets the per-class
   * attainment counters are judged against at ingest (normally the
   * deployment's SLO).
   */
  explicit MetricsCollector(const workload::SloTargets& slo) : slo_(slo) {}

  /** Ingests a finished request's timing record. */
  void OnRequestComplete(const Request& request);

  /** Attained requests (== completed()) plus the degraded outcomes. */
  GoodputSplit Split() const;

  /** Per-SLO-class slice (classes default to standard when unset). */
  const ClassMetrics& ClassSlice(workload::SloClass slo_class) const {
    return per_class_[workload::SloClassRank(slo_class)];
  }

  /** True once any non-standard class has been reported (i.e. the
   * per-class split says more than the aggregate). */
  bool HasClassMix() const;

  /** Every OnRequestComplete call, over all terminal outcomes. */
  std::size_t notified() const {
    return completed_ + timed_out_ + shed_ + failed_;
  }

  std::size_t completed() const { return completed_; }
  std::int64_t output_tokens() const { return output_tokens_; }
  std::int64_t input_tokens() const { return input_tokens_; }

  LatencySummary Ttft() const { return ttft_.Summarize(); }
  LatencySummary Tbt() const { return tbt_.Summarize(); }
  LatencySummary Tpot() const { return tpot_.Summarize(); }
  LatencySummary E2e() const { return e2e_.Summarize(); }

  /**
   * TTFT normalized per prompt token (paper §4.4.3 preemption study).
   */
  LatencySummary TtftPerToken() const { return ttft_per_token_.Summarize(); }

  /** Population sketches (CDF plots, digest keying, accuracy gates). */
  const QuantileSketch& ttft_sketch() const { return ttft_; }
  const QuantileSketch& ttft_per_token_sketch() const {
    return ttft_per_token_;
  }
  const QuantileSketch& tbt_sketch() const { return tbt_; }
  const QuantileSketch& tpot_sketch() const { return tpot_; }
  const QuantileSketch& e2e_sketch() const { return e2e_; }

  /**
   * Canonical sketch-state witness over every population the collector
   * keeps: the five aggregate sketches, then each class's queue-delay
   * and TTFT sketches. Order-invariant by construction, so it is
   * comparable at any merge order.
   */
  struct SketchFold {
    std::uint64_t digest = 0;
    /** Some sketch left its exact tier. */
    bool overflowed = false;
    /** Bytes held by all those sketches. */
    std::size_t bytes = 0;
  };
  SketchFold FoldSketches() const;

  /** Fraction of token gaps within the TBT target. */
  double TbtAttainment(sim::Duration tbt_target) const;

  /** True if P99 TBT and the attainment percentile meet `slo`. */
  bool MeetsSlo(const workload::SloTargets& slo) const;

  /** Output tokens per second over [t0, t1]. */
  double TokenThroughput(sim::Time t0, sim::Time t1) const;

  /** Completed requests per second over [t0, t1]. */
  double RequestThroughput(sim::Time t0, sim::Time t1) const;

  /**
   * Registers latency-sanity audits: every population minimum is
   * non-negative, no request completed earlier than its first token
   * (E2E >= TTFT, checked at ingest), and the per-population sample
   * counts agree with `completed()`.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

 private:
  workload::SloTargets slo_;

  std::size_t completed_ = 0;
  std::size_t timed_out_ = 0;
  std::size_t shed_ = 0;
  std::size_t failed_ = 0;
  std::int64_t output_tokens_ = 0;
  std::int64_t input_tokens_ = 0;

  /** Requests whose E2E came out below their TTFT (must stay 0). */
  std::size_t e2e_before_ttft_ = 0;

  QuantileSketch ttft_;
  QuantileSketch ttft_per_token_;
  QuantileSketch tbt_;
  QuantileSketch tpot_;
  QuantileSketch e2e_;

  std::array<ClassMetrics, workload::kNumSloClasses> per_class_;
};

}  // namespace muxwise::serve

#endif  // MUXWISE_SERVE_METRICS_H_
