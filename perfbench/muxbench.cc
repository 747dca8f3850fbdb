// End-to-end benchmark of the MuxWise reproduction: host cost of the
// simulator and the simulated serving metrics on four workloads.
//
//   muxbench --workload <name|all> --seed N --seconds S --trace 0|1
//            [--spans-out FILE]
//
// Each workload is set up several times (the first set-up is cold), driven
// once untimed as a warm-up and as the reference outcome, then driven
// repeatedly for S seconds. Every timed drive must repeat the reference's
// event digest, outcome digest and simulated metrics bit for bit. With
// --trace 1 the run instead reports per-layer numbers from spans recorded
// around each call into a layer, plus two standalone replays (the event
// schedule through a bare simulator, the prompts through a KV pool).
//
// The last line of stdout is one JSON object: correct, attempted, failed,
// metrics. `--workload all` runs every workload in its own child process,
// one after another, so each one's peak RSS is its own.

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "harness/streaming.h"
#include "kv/kv_pool.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "serve/frontend.h"
#include "serve/metrics.h"
#include "serve/quantile_sketch.h"
#include "sim/simulator.h"
#include "spans.h"
#include "workload/datasets.h"

namespace muxwise::perfbench {
namespace {

using harness::EngineKind;
using harness::RunConfig;
using harness::RunOutcome;

constexpr std::size_t kClasses = workload::kNumSloClasses;

/** Value printed for a metric the workload cannot measure. The result
 * line needs a number for every metric, and run-to-run comparisons divide
 * by a metric's median, so the placeholder is 1, not 0. */
constexpr double kNotApplicable = 1.0;

/** Timed drives per run, at least, whatever --seconds says. */
constexpr int kMinDrives = 3;

/** Host time one warm set-up sample spans, at least: a sample repeats the
 * set-up and reports the mean, since a single set-up (10 ms on
 * short-stream) is short enough for one scheduler preemption to double. */
constexpr double kSetupSampleSeconds = 0.1;

// ---------------------------------------------------------------------------
// Small helpers.

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::uint64_t Mix(std::uint64_t h, std::uint64_t v) {
  return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
}

std::uint64_t Mix(std::uint64_t h, double v) {
  return Mix(h, std::bit_cast<std::uint64_t>(v));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/**
 * Quantile of a sketch. On the exact tier this is its R-7 value; past it
 * the sketch's own Quantile() returns bucket midpoints, so invert the
 * interpolating CountLessEqual() instead to keep the estimate continuous.
 */
double SketchQuantile(const serve::QuantileSketch& sketch, double p) {
  if (!sketch.overflowed()) return sketch.Quantile(p);
  const double want = p * static_cast<double>(sketch.Count());
  double lo = sketch.Min();
  double hi = sketch.Max();
  for (int i = 0; i < 100 && lo < hi; ++i) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (sketch.CountLessEqual(mid) < want ? lo : hi) = mid;
  }
  return hi;
}

/**
 * The p-quantile (R-7) of a TTFT population of `attempted` requests of
 * which only the `completed` ones are in `sketch`. Every other request
 * (shed, timed out, failed, never finished) ranks above every completed
 * one with the value `miss_ms`, so shedding work can never lower it.
 */
double PopulationQuantile(const serve::QuantileSketch& sketch,
                          std::size_t attempted, double miss_ms, double p) {
  if (attempted == 0) return 0.0;
  const std::size_t completed = sketch.Count();
  if (completed == 0) return miss_ms;
  const double rank = p * static_cast<double>(attempted - 1);
  const double last = static_cast<double>(completed - 1);
  if (rank <= last) {
    return completed == 1 ? sketch.Max() : SketchQuantile(sketch, rank / last);
  }
  const double frac = rank - last;
  if (frac >= 1.0) return miss_ms;
  return sketch.Max() + frac * (miss_ms - sketch.Max());
}

// ---------------------------------------------------------------------------
// What one drive of a workload produced.

/** The simulated serving metrics (all deterministic). */
struct SimMetrics {
  double ttft_p50_ms = 0.0;
  double ttft_p99_ms = 0.0;
  double tbt_p99_ms = 0.0;
  double tbt_attainment = 0.0;
  /** False when the driver reports no token-gap population to count;
   * tbt_attainment then holds the placeholder kNotApplicable. */
  bool tbt_attainment_applies = true;
  double ttft_attainment = 0.0;
  double goodput_rps = 0.0;
  /** Attempted requests of the run, and the completed ones among them
   * (the rest are misses in the TTFT population). */
  std::size_t population = 0;
  std::size_t ttft_samples = 0;

  bool operator==(const SimMetrics&) const = default;
};

/** Terminal dispositions, summed over the drive's runs. */
struct Counts {
  std::size_t attempted = 0;
  std::size_t completed = 0;
  std::size_t shed = 0;
  std::size_t timed_out = 0;
  std::size_t failed = 0;
  /** Requests with no terminal disposition (split.total() short). */
  std::size_t unfinished = 0;

  void Add(const serve::GoodputSplit& split, std::size_t total) {
    attempted += total;
    completed += split.attained;
    shed += split.shed;
    timed_out += split.timed_out;
    failed += split.failed;
    unfinished += total - std::min(total, split.total());
  }
};

/** Deterministic per-layer counters of one drive. */
struct LayerCounters {
  double events = 0;
  double peak_in_flight = 0;
  double preemptions = 0;
  double bubble_ratio = 0;
  double partition_changes = 0;
  double gpu_util_pct = 0;
  double kv_cache_hit_rate = 0;
  double kv_spills = 0;
  double kv_recomputes = 0;
  double kv_restores = 0;
  double route_affinity_hit_share = 0;
  double route_session_hits = 0;
  double route_load_imbalance = 0;
  double metric_bytes = 0;
  double sketch_overflowed = 0;
  std::array<double, kClasses> queue_delay_p99_ms{};
  double overload_mode_transitions = 0;
  std::array<double, kClasses> shed{};
};

/** One rate point of a sweep, for the report. */
struct PointRow {
  double rate_rps = 0.0;
  bool stable = false;
  bool meets_slo = false;
  double tbt_attainment = 0.0;
  double tbt_p99_ms = 0.0;
};

struct DriveOut {
  std::uint64_t event_digest = 0x9e3779b97f4a7c15ULL;
  std::uint64_t outcome_digest = 0x243f6a8885a308d3ULL;
  std::size_t events = 0;
  Counts counts;
  std::string diagnostic;  // First non-empty diagnostic of any run.
  /** Event digest of the run the sim metrics are read from. */
  std::uint64_t reported_event_digest = 0;
  SimMetrics sim;
  LayerCounters layers;
  std::vector<PointRow> points;

  void Fold(const RunOutcome& o) {
    event_digest = Mix(event_digest, o.event_digest);
    outcome_digest = Mix(outcome_digest, harness::OutcomeDigest(o));
    events += o.executed_events;
    counts.Add(o.split, o.total);
    if (diagnostic.empty()) diagnostic = o.diagnostic;
  }
};

/**
 * Simulated metrics of one materialized run. A miss counts as the run's
 * drain horizon (last arrival plus the drain timeout), which is at
 * least every completed TTFT.
 */
SimMetrics SimFromOutcome(const RunOutcome& o, const workload::Trace& trace,
                          const RunConfig& config) {
  serve::QuantileSketch ttft;
  std::size_t ttft_attained = 0;
  for (const serve::ClassMetrics& slice : o.per_class) {
    ttft.Merge(slice.ttft);
    ttft_attained += slice.ttft_attained;
  }
  const double last_arrival =
      trace.requests.empty() ? 0.0 : trace.requests.back().arrival_seconds;
  const double miss_ms = std::max(
      ttft.Max(), 1000.0 * (last_arrival + config.drain_timeout_seconds));
  SimMetrics sim;
  sim.population = o.total;
  sim.ttft_samples = ttft.Count();
  sim.ttft_p50_ms = PopulationQuantile(ttft, o.total, miss_ms, 0.50);
  sim.ttft_p99_ms = PopulationQuantile(ttft, o.total, miss_ms, 0.99);
  sim.tbt_p99_ms = o.tbt.p99_ms;
  sim.tbt_attainment = o.tbt_attainment;
  sim.ttft_attainment =
      static_cast<double>(ttft_attained) / static_cast<double>(o.total);
  sim.goodput_rps = static_cast<double>(ttft_attained) /
                    std::max(trace.SpanSeconds(), 1e-9);
  return sim;
}

LayerCounters LayersFromOutcome(const RunOutcome& o) {
  LayerCounters l;
  l.preemptions = static_cast<double>(o.preemptions);
  l.bubble_ratio = o.bubble_ratio;
  for (std::size_t i = 1; i < o.partition_trace.size(); ++i) {
    if (o.partition_trace[i].decode_sms != o.partition_trace[i - 1].decode_sms) {
      ++l.partition_changes;
    }
  }
  if (!o.gpu_utilization.empty()) {
    l.gpu_util_pct =
        std::accumulate(o.gpu_utilization.begin(), o.gpu_utilization.end(),
                        0.0) /
        static_cast<double>(o.gpu_utilization.size());
  }
  l.kv_cache_hit_rate = o.cache_hit_rate;
  l.kv_spills = static_cast<double>(o.kv_spills);
  l.kv_recomputes = static_cast<double>(o.kv_recomputes);
  l.kv_restores = static_cast<double>(o.kv_restores);
  if (o.fleet_active && !o.fleet.routed_per_replica.empty()) {
    const auto& routed = o.fleet.routed_per_replica;
    const double sum =
        static_cast<double>(std::accumulate(routed.begin(), routed.end(),
                                            std::size_t{0}));
    const double max =
        static_cast<double>(*std::max_element(routed.begin(), routed.end()));
    l.route_affinity_hit_share =
        sum > 0 ? static_cast<double>(o.fleet.affinity_hits) / sum : 0.0;
    l.route_session_hits = static_cast<double>(o.fleet.session_hits);
    l.route_load_imbalance =
        sum > 0 ? max / (sum / static_cast<double>(routed.size())) : 0.0;
  }
  l.metric_bytes = static_cast<double>(o.ttft_per_token_sketch.MemoryBytes());
  for (std::size_t c = 0; c < kClasses; ++c) {
    const serve::ClassMetrics& slice = o.per_class[c];
    l.metric_bytes += static_cast<double>(slice.queue_delay.MemoryBytes() +
                                          slice.ttft.MemoryBytes());
    l.queue_delay_p99_ms[c] = slice.QueueDelayP99();
    l.shed[c] = static_cast<double>(slice.split.shed);
  }
  l.sketch_overflowed = o.metrics_overflowed ? 1.0 : 0.0;
  l.overload_mode_transitions =
      static_cast<double>(o.overload_mode_transitions);
  return l;
}

/** Share of requests that are a later turn of their session. */
double LaterTurnShare(const workload::Trace& trace) {
  const auto later = std::count_if(
      trace.requests.begin(), trace.requests.end(),
      [](const workload::RequestSpec& r) { return r.session_seq > 0; });
  return trace.requests.empty()
             ? 0.0
             : static_cast<double>(later) /
                   static_cast<double>(trace.requests.size());
}

/** Share of prompt tokens that repeat earlier context. */
double ReusedTokenShare(const workload::Trace& trace) {
  double reused = 0.0;
  double input = 0.0;
  for (const workload::RequestSpec& r : trace.requests) {
    reused += static_cast<double>(r.reused_tokens);
    input += static_cast<double>(r.input_tokens);
  }
  return input > 0 ? reused / input : 0.0;
}

// ---------------------------------------------------------------------------
// Workloads.

/** Deterministic facts about the workload's inputs, from set-up. */
struct InputFacts {
  double requests = 0;
  double reused_token_share = 0;
  /** Later turns wait in the frontend until their predecessor completes. */
  double later_turn_share = 0;
};

/** How long the frontend held each request of one run past its arrival. */
struct HoldStats {
  std::uint64_t event_digest = 0;
  std::size_t requests = 0;
  std::size_t held = 0;
  serve::QuantileSketch hold_ms;

  double held_share() const {
    return requests == 0 ? 0.0
                         : static_cast<double>(held) /
                               static_cast<double>(requests);
  }
};

/**
 * Sits between serve::Frontend and the engine and records, for every
 * request, how long after its trace arrival the frontend dispatched it.
 * serve::Frontend holds a later turn until its predecessor completes, and
 * the engine's TTFT clock starts at dispatch, so this hold is in no
 * simulated latency metric. It only observes: the event stream is the
 * unprobed run's.
 */
class HoldProbe : public serve::Engine {
 public:
  HoldProbe(serve::Engine* inner, const sim::Simulator* simulator,
            HoldStats* stats)
      : inner_(inner), sim_(simulator), stats_(stats) {
    inner_->set_on_complete([this](std::unique_ptr<serve::Request> r) {
      NotifyComplete(std::move(r));
    });
  }

  const char* name() const override { return inner_->name(); }
  std::size_t InFlight() const override { return inner_->InFlight(); }

  void Enqueue(std::unique_ptr<serve::Request> request) override {
    const sim::Duration hold =
        sim_->Now() - sim::Seconds(request->spec->arrival_seconds);
    ++stats_->requests;
    if (hold > 0) ++stats_->held;
    stats_->hold_ms.Add(sim::ToMilliseconds(hold));
    inner_->Enqueue(std::move(request));
  }

 private:
  serve::Engine* inner_;
  const sim::Simulator* sim_;
  HoldStats* stats_;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /** Builds everything a drive needs from `seed`, replacing any earlier
   * set-up: deployment, offline estimator, trace(s), one engine. */
  virtual void Setup(std::uint64_t seed, SpanLog* spans) = 0;

  /** Runs the workload once on fresh simulators. */
  virtual DriveOut Drive(SpanLog* spans) const = 0;

  virtual InputFacts Facts() const = 0;

  /**
   * The traces one drive runs through the harness, in order; the last is
   * the run whose latency metrics are reported. Empty when the workload's
   * driver generates its requests lazily and owns its simulator.
   */
  virtual std::vector<const workload::Trace*> Traces() const { return {}; }

  std::int64_t pool_capacity_tokens() const { return pool_capacity_tokens_; }

  /**
   * Re-runs `trace` as the drive does, through a serve::Frontend with a
   * HoldProbe in front of the engine and, if `log` is set, the simulator's
   * execution log attached.
   */
  HoldStats Probe(const workload::Trace& trace,
                  std::vector<sim::Simulator::ExecutedEvent>* log) const {
    HoldStats stats;
    sim::Simulator simulator;
    simulator.SetExecutionLog(log);
    const harness::EngineInstance instance = harness::MakeEngine(
        EngineKind::kMuxWise, &simulator, *deployment_, &*estimator_, config_);
    HoldProbe probe(instance.engine.get(), &simulator, &stats);
    serve::MetricsCollector metrics(deployment_->slo);
    serve::Frontend frontend(&simulator, &probe, &trace, &metrics);
    frontend.Start();
    harness::DriveScenario(simulator, frontend, trace, config_);
    simulator.SetExecutionLog(nullptr);
    stats.event_digest = simulator.EventDigest();
    return stats;
  }

 protected:
  /** Deployment + estimator + one engine construction (set-up spans). */
  void BuildDeployment(const llm::ModelConfig& model, const RunConfig& config,
                       SpanLog* spans) {
    {
      SpanLog::Scope s(spans, "serve.deployment");
      deployment_ = serve::Deployment::Make(model, gpu::GpuSpec::A100());
    }
    {
      SpanLog::Scope s(spans, "core.estimator_build");
      estimator_.emplace(core::ContentionEstimator::BuildOffline(*deployment_));
    }
    config_ = config;
  }

  void BuildEngine(SpanLog* spans) {
    SpanLog::Scope s(spans, "harness.make_engine");
    sim::Simulator scratch;
    const harness::EngineInstance instance = harness::MakeEngine(
        EngineKind::kMuxWise, &scratch, *deployment_, &*estimator_, config_);
    pool_capacity_tokens_ =
        instance.fleet != nullptr
            ? instance.fleet->replica(0).pool().capacity_tokens()
            : instance.muxwise->pool().capacity_tokens();
  }

  std::optional<serve::Deployment> deployment_;
  std::optional<core::ContentionEstimator> estimator_;
  RunConfig config_;
  std::int64_t pool_capacity_tokens_ = 0;
};

/** One materialized trace through RunWorkload (agent-fleet, conv-burst). */
class SingleRateWorkload : public Workload {
 public:
  using Generator = std::function<workload::Trace(std::uint64_t)>;

  SingleRateWorkload(llm::ModelConfig model, RunConfig config,
                     Generator generate)
      : model_(std::move(model)),
        base_config_(std::move(config)),
        generate_(std::move(generate)) {}

  void Setup(std::uint64_t seed, SpanLog* spans) override {
    BuildDeployment(model_, base_config_, spans);
    {
      SpanLog::Scope s(spans, "workload.generate");
      trace_ = generate_(seed);
    }
    BuildEngine(spans);
  }

  DriveOut Drive(SpanLog* spans) const override {
    RunOutcome o;
    {
      SpanLog::Scope s(spans, "harness.drive");
      o = harness::RunWorkload(EngineKind::kMuxWise, *deployment_, trace_,
                               &*estimator_, config_);
    }
    DriveOut out;
    out.Fold(o);
    out.reported_event_digest = o.event_digest;
    out.sim = SimFromOutcome(o, trace_, config_);
    out.layers = LayersFromOutcome(o);
    out.layers.events = static_cast<double>(o.executed_events);
    return out;
  }

  InputFacts Facts() const override {
    return {static_cast<double>(trace_.requests.size()),
            ReusedTokenShare(trace_), LaterTurnShare(trace_)};
  }

  std::vector<const workload::Trace*> Traces() const override {
    return {&trace_};
  }

 private:
  llm::ModelConfig model_;
  RunConfig base_config_;
  Generator generate_;
  workload::Trace trace_;
};

/**
 * The Fig. 15 goodput sweep plus one latency run. Unlike
 * harness::SweepGoodput the sweep runs every grid point instead of
 * stopping at the first failure, so the host work does not depend on
 * where the knee falls; the per-point traces follow SweepGoodput's recipe
 * (Poisson resample of one base trace, ~90 s of offered load). The
 * latency metrics come from a separate, longer run at a fixed rate well
 * below the knee: a 90 s point holds too few Tool&Agent sessions for its
 * TTFT percentiles to be steady from one seed to the next.
 */
class SweepWorkload : public Workload {
 public:
  static constexpr double kSpanSeconds = 90.0;
  static constexpr std::array<double, 13> kRates = {
      8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20};
  static constexpr double kLatencyRate = 8.0;
  static constexpr int kLatencyRequests = 16000;

  void Setup(std::uint64_t seed, SpanLog* spans) override {
    RunConfig config;
    config.drain_timeout_seconds = 180.0;
    config.steady_state = true;
    BuildDeployment(llm::ModelConfig::Llama8B(), config, spans);
    {
      SpanLog::Scope s(spans, "workload.generate");
      const workload::Trace base = workload::GenerateTrace(
          workload::Dataset::kToolAgent, kLatencyRequests, 1.0, seed);
      points_.clear();
      for (double rate : kRates) {
        workload::Trace trace = base;
        workload::ResampleArrivalsPoisson(trace, rate, seed + 1);
        const auto wanted = static_cast<std::size_t>(rate * kSpanSeconds);
        if (trace.requests.size() > wanted) trace.requests.resize(wanted);
        points_.push_back(std::move(trace));
      }
      latency_ = base;
      workload::ResampleArrivalsPoisson(latency_, kLatencyRate, seed + 2);
    }
    BuildEngine(spans);
  }

  DriveOut Drive(SpanLog* spans) const override {
    DriveOut out;
    bool knee_passed = false;
    for (std::size_t i = 0; i < kRates.size(); ++i) {
      RunOutcome o;
      {
        SpanLog::Scope s(spans, "harness.drive");
        o = harness::RunWorkload(EngineKind::kMuxWise, *deployment_,
                                 points_[i], &*estimator_, config_);
      }
      out.Fold(o);
      out.points.push_back(
          {kRates[i], o.stable, o.meets_slo, o.tbt_attainment, o.tbt.p99_ms});
      if (!o.meets_slo) knee_passed = true;
      if (!knee_passed) out.sim.goodput_rps = kRates[i];
    }
    RunOutcome o;
    {
      SpanLog::Scope s(spans, "harness.drive");
      o = harness::RunWorkload(EngineKind::kMuxWise, *deployment_, latency_,
                               &*estimator_, config_);
    }
    out.Fold(o);
    const double goodput = out.sim.goodput_rps;
    out.sim = SimFromOutcome(o, latency_, config_);
    out.sim.goodput_rps = goodput;
    out.layers = LayersFromOutcome(o);
    out.layers.events = static_cast<double>(out.events);
    out.reported_event_digest = o.event_digest;
    return out;
  }

  InputFacts Facts() const override {
    double requests = static_cast<double>(latency_.requests.size());
    for (const workload::Trace& t : points_) {
      requests += static_cast<double>(t.requests.size());
    }
    return {requests, ReusedTokenShare(latency_), LaterTurnShare(latency_)};
  }

  std::vector<const workload::Trace*> Traces() const override {
    std::vector<const workload::Trace*> traces;
    for (const workload::Trace& t : points_) traces.push_back(&t);
    traces.push_back(&latency_);
    return traces;
  }

 private:
  std::vector<workload::Trace> points_;
  workload::Trace latency_;
};

/** The lazy streaming driver: single-turn Poisson, O(in-flight) state. */
class StreamWorkload : public Workload {
 public:
  void Setup(std::uint64_t seed, SpanLog* spans) override {
    BuildDeployment(llm::ModelConfig::Llama70B(), RunConfig(), spans);
    {
      // The stream is generated lazily inside the drive; set-up only
      // fixes its parameters.
      SpanLog::Scope s(spans, "workload.generate");
      spec_ = harness::StreamingSpec();
      spec_.total_requests = 500'000;
      spec_.rate_per_second = 50.0;
      spec_.seed = seed;
    }
    BuildEngine(spans);
  }

  DriveOut Drive(SpanLog* spans) const override {
    harness::StreamingOutcome o;
    {
      SpanLog::Scope s(spans, "harness.drive");
      o = harness::RunStreamingWorkload(EngineKind::kMuxWise, *deployment_,
                                        spec_, &*estimator_, config_);
    }
    DriveOut out;
    out.event_digest = Mix(out.event_digest, o.event_digest);
    // StreamingOutcome has no OutcomeDigest; fold what it reports.
    std::uint64_t h = out.outcome_digest;
    h = Mix(h, o.event_digest);
    h = Mix(h, static_cast<std::uint64_t>(o.executed_events));
    h = Mix(h, o.completed);
    h = Mix(h, o.total);
    for (const serve::LatencySummary& s : {o.ttft, o.tbt, o.e2e}) {
      h = Mix(Mix(Mix(Mix(h, s.mean_ms), s.p50_ms), s.p99_ms),
              static_cast<std::uint64_t>(s.count));
    }
    h = Mix(h, o.metrics_state_digest);
    out.outcome_digest = h;
    out.events = o.executed_events;
    out.diagnostic = o.diagnostic;
    serve::GoodputSplit split;
    split.attained = o.completed;
    out.counts.Add(split, o.total);

    // The streaming outcome carries the TTFT population but no per-request
    // TTFT targets and no token-gap population. TTFT attainment is judged
    // against the strictest per-prompt target (a lower bound). TBT
    // attainment cannot be counted, so it is not applicable here; the TBT
    // signal of this workload is serve.tbt_p99_ms.
    const double ttft_target_ms = sim::ToMilliseconds(
        deployment_->slo.TtftTargetFor(spec_.input.min));
    const double ttft_attained = o.ttft_sketch.CountLessEqual(ttft_target_ms);
    const auto total = static_cast<std::size_t>(o.total);
    out.sim.population = total;
    out.sim.ttft_samples = o.ttft_sketch.Count();
    out.sim.ttft_p50_ms =
        PopulationQuantile(o.ttft_sketch, total, o.ttft_sketch.Max(), 0.50);
    out.sim.ttft_p99_ms =
        PopulationQuantile(o.ttft_sketch, total, o.ttft_sketch.Max(), 0.99);
    out.sim.tbt_p99_ms = o.tbt.p99_ms;
    out.sim.tbt_attainment = kNotApplicable;
    out.sim.tbt_attainment_applies = false;
    out.sim.ttft_attainment = ttft_attained / static_cast<double>(total);
    out.sim.goodput_rps = ttft_attained * spec_.rate_per_second /
                          static_cast<double>(total);

    out.layers.events = static_cast<double>(o.executed_events);
    out.layers.peak_in_flight = static_cast<double>(o.peak_in_flight);
    out.layers.metric_bytes = static_cast<double>(o.metric_bytes);
    out.layers.sketch_overflowed = o.metrics_overflowed ? 1.0 : 0.0;
    return out;
  }

  InputFacts Facts() const override {
    return {static_cast<double>(spec_.total_requests), 0.0, 0.0};
  }

 private:
  harness::StreamingSpec spec_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "agent-fleet") {
    RunConfig config;
    config.fleet.enabled = true;
    config.fleet.replicas = 4;
    return std::make_unique<SingleRateWorkload>(
        llm::ModelConfig::Llama8B(), config, [](std::uint64_t seed) {
          return workload::GenerateTrace(workload::Dataset::kToolAgent, 30000,
                                         40.0, seed);
        });
  }
  if (name == "short-stream") return std::make_unique<StreamWorkload>();
  if (name == "agent-goodput") return std::make_unique<SweepWorkload>();
  if (name == "conv-burst-overload") {
    RunConfig config;
    config.overload.enabled = true;
    return std::make_unique<SingleRateWorkload>(
        llm::ModelConfig::Llama8B(), config, [](std::uint64_t seed) {
          workload::MmppOptions mmpp;
          mmpp.dataset = workload::Dataset::kConversation;
          mmpp.calm_rate_per_second = 3.0;
          mmpp.burst_multiplier = 4.0;
          mmpp.duration_seconds = 1800.0;
          mmpp.class_mix = {0.3, 0.5, 0.2};
          return workload::GenerateMmppTrace(mmpp, seed);
        });
  }
  return nullptr;
}

const std::array<const char*, 4> kWorkloadNames = {
    "agent-fleet", "short-stream", "agent-goodput", "conv-burst-overload"};

// ---------------------------------------------------------------------------
// Standalone layer replays (traced run only).

struct Replay {
  double ns_per_item = 0.0;
  double hit_rate = 0.0;
  bool ok = true;
};

/**
 * Replays an executed (when, id) schedule through a bare simulator with
 * no-op callbacks. Event i is scheduled as soon as the original run is
 * known to have scheduled it: once an event with an id >= i executed.
 */
Replay ReplaySchedule(const std::vector<sim::Simulator::ExecutedEvent>& log,
                      SpanLog* spans) {
  std::vector<sim::Simulator::ExecutedEvent> by_id = log;
  std::sort(by_id.begin(), by_id.end(),
            [](const auto& a, const auto& b) { return a.id < b.id; });
  sim::Simulator bare;
  std::size_t next = 0;
  sim::EventId seen = 0;
  const std::int64_t t0 = NowNs();
  {
    SpanLog::Scope s(spans, "sim.replay");
    for (const sim::Simulator::ExecutedEvent& e : log) {
      seen = std::max(seen, e.id);
      while (next < by_id.size() && by_id[next].id <= seen) {
        bare.ScheduleAt(by_id[next].when, [] {});
        ++next;
      }
      bare.Step();
    }
  }
  const std::int64_t t1 = NowNs();
  Replay r;
  r.ok = bare.ExecutedEvents() == log.size() &&
         (log.empty() || bare.Now() == log.back().when);
  r.ns_per_item = log.empty() ? 0.0
                              : static_cast<double>(t1 - t0) /
                                    static_cast<double>(log.size());
  return r;
}

/** Replays the trace's prompts in arrival order through one KV pool. */
Replay ReplayKv(const workload::Trace& trace, std::int64_t capacity_tokens,
                SpanLog* spans) {
  std::vector<const workload::RequestSpec*> order;
  order.reserve(trace.requests.size());
  for (const workload::RequestSpec& r : trace.requests) order.push_back(&r);
  std::stable_sort(order.begin(), order.end(), [](const auto* a, const auto* b) {
    return a->arrival_seconds < b->arrival_seconds;
  });
  kv::KvPool pool(capacity_tokens);
  const std::int64_t t0 = NowNs();
  {
    SpanLog::Scope s(spans, "kv.replay");
    for (const workload::RequestSpec* r : order) {
      const sim::Time now = sim::Seconds(r->arrival_seconds);
      kv::KvPool::PrefixLease lease = pool.AcquirePrefix(r->prompt, now);
      pool.CommitSequence(r->full_seq, now);
      pool.ReleasePrefix(lease);
    }
  }
  const std::int64_t t1 = NowNs();
  Replay r;
  r.hit_rate = pool.HitRate();
  r.ns_per_item = order.empty() ? 0.0
                                : static_cast<double>(t1 - t0) /
                                      static_cast<double>(order.size());
  return r;
}

// ---------------------------------------------------------------------------
// Reporting.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  const char* better = "";  // "lower" or "higher".
  bool applies = true;      // False: `value` is kNotApplicable.
};

std::string Json(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-34s %18.6f %-7s %s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.better,
                m.applies ? "" : "  (not applicable; placeholder)");
  }
}

void PrintResultLine(bool correct, std::size_t attempted, std::size_t failed,
                     const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            Json(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

std::string Hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

void PrintMachine() {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int cpus =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : 0;
  std::printf(
      "machine: {\"cpus\": %d, \"hardware_threads\": %u, "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      cpus, std::thread::hardware_concurrency(), MUXBENCH_COMPILER,
      MUXBENCH_BUILD_TYPE);
}

// ---------------------------------------------------------------------------
// One workload, end to end.

struct Options {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_out;
};

/** Checks a repeat against the reference drive; empty when identical. */
std::string CompareToReference(const DriveOut& ref, const DriveOut& d) {
  if (d.event_digest != ref.event_digest) return "event digest changed";
  if (d.outcome_digest != ref.outcome_digest) return "outcome digest changed";
  if (!(d.sim == ref.sim)) return "simulated metrics changed";
  return "";
}

/** The correctness gate on one drive; empty when it passes. */
std::string CheckDrive(const DriveOut& d) {
  if (!d.diagnostic.empty()) return "diagnostic: " + d.diagnostic;
  if (d.counts.unfinished != 0) {
    return std::to_string(d.counts.unfinished) +
           " requests have no terminal disposition";
  }
  if (d.counts.attempted == 0) return "no requests attempted";
  return "";
}

int RunOne(const Options& opt) {
  std::unique_ptr<Workload> w = MakeWorkload(opt.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "muxbench: unknown workload '%s'\n",
                 opt.workload.c_str());
    return 2;
  }
  std::printf("== workload %s  seed %llu  %s run ==\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed),
              opt.trace ? "traced" : "timed");
  PrintMachine();

  SpanLog log;
  SpanLog* spans = opt.trace ? &log : nullptr;
  std::vector<std::string> errors;

  // Set-up is timed once cold, then sampled before every timed drive, so
  // its median samples the whole run like the drives do. Every set-up
  // rebuilds everything from scratch.
  std::vector<double> setup_s;
  auto set_up = [&](SpanLog* sl, double min_seconds) {
    const std::int64_t t0 = NowNs();
    int n = 0;
    do {
      SpanLog::Scope s(sl, "bench.setup");
      w->Setup(opt.seed, sl);
      ++n;
    } while (static_cast<double>(NowNs() - t0) * 1e-9 < min_seconds);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9 / n);
  };
  set_up(spans, 0.0);

  // Warm-up: untimed, and the reference every timed drive must repeat.
  const DriveOut ref = w->Drive(nullptr);
  if (std::string e = CheckDrive(ref); !e.empty()) errors.push_back(e);
  // Peak RSS of one set-up and one drive. Read before the timed loop: how
  // many drives fit in --seconds varies, and heap fragmentation across
  // repeats would make the peak depend on it.
  const double peak_rss_mb = PeakRssMb();

  // Timed drives. The traced run times untraced drives for the first
  // half of its budget and traced ones for the second.
  auto timed = [&](SpanLog* sl, double budget_s, int run_base,
                   std::vector<double>* walls, Counts* counts) {
    const std::int64_t start = NowNs();
    for (int i = 0; i < kMinDrives ||
                    static_cast<double>(NowNs() - start) * 1e-9 < budget_s;
         ++i) {
      log.set_run(run_base + i);
      set_up(sl, kSetupSampleSeconds);
      const std::int64_t t0 = NowNs();
      DriveOut d;
      {
        SpanLog::Scope s(sl, "bench.drive");
        d = w->Drive(sl);
      }
      walls->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      counts->attempted += d.counts.attempted;
      counts->unfinished += d.counts.unfinished;
      if (std::string e = CheckDrive(d); !e.empty()) errors.push_back(e);
      if (std::string e = CompareToReference(ref, d); !e.empty()) {
        errors.push_back("drive " + std::to_string(i) + ": " + e);
      }
    }
  };

  std::vector<double> walls;
  std::vector<double> traced_walls;
  Counts run_counts;
  if (!opt.trace) {
    timed(nullptr, opt.seconds, 0, &walls, &run_counts);
  } else {
    timed(nullptr, opt.seconds / 2, 0, &walls, &run_counts);
    timed(spans, opt.seconds / 2, 1000, &traced_walls, &run_counts);
  }
  const double wall_s = Median(walls);

  const Counts& c = ref.counts;
  std::printf(
      "requests per drive: attempted %zu  completed %zu  shed %zu  "
      "timed_out %zu  failed %zu  unfinished %zu\n",
      c.attempted, c.completed, c.shed, c.timed_out, c.failed, c.unfinished);
  std::printf("shed share: %.6f\n", static_cast<double>(c.shed) /
                                        static_cast<double>(c.attempted));
  if (const double later = w->Facts().later_turn_share; later > 0) {
    std::printf("traffic: sessions arrive open-loop; a later turn (share "
                "%.6f of the reported run) is held until its predecessor "
                "completes, and its TTFT counts from dispatch\n",
                later);
  } else {
    std::printf("traffic: open loop, single-turn requests\n");
  }
  std::printf("event_digest %s  outcome_digest %s  events %zu\n",
              Hex(ref.event_digest).c_str(), Hex(ref.outcome_digest).c_str(),
              ref.events);
  std::printf("ttft population: %zu completed of %zu attempted\n",
              ref.sim.ttft_samples, ref.sim.population);
  std::printf("set-up (s): cold %.6f, median of %zu %.6f\n", setup_s.front(),
              setup_s.size(), Median(setup_s));
  std::printf("set-ups (s):");
  for (double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("timed drives (s):");
  for (double t : walls) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("sim TBT p99 %.3f ms (a histogram bucket midpoint, so it is "
              "the per-layer serve.tbt_p99_ms, not an end-to-end metric)\n",
              ref.sim.tbt_p99_ms);
  for (const PointRow& p : ref.points) {
    std::printf("  rate %5.1f req/s  stable %-3s  meets_slo %-3s  "
                "tbt_attainment %.6f  tbt_p99 %.3f ms\n",
                p.rate_rps, p.stable ? "yes" : "no",
                p.meets_slo ? "yes" : "no", p.tbt_attainment, p.tbt_p99_ms);
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    const double requests = static_cast<double>(c.attempted);
    metrics = {
        {"setup_s", Median(setup_s), "s", "lower"},
        {"wall_s", wall_s, "s", "lower"},
        {"sim_events_per_s", static_cast<double>(ref.events) / wall_s,
         "events/s", "higher"},
        {"host_ns_per_request", wall_s * 1e9 / requests, "ns", "lower"},
        {"peak_rss_mb", peak_rss_mb, "MiB", "lower"},
        {"sim_ttft_p50_ms", ref.sim.ttft_p50_ms, "ms", "lower"},
        {"sim_ttft_p99_ms", ref.sim.ttft_p99_ms, "ms", "lower"},
        {"sim_tbt_attainment", ref.sim.tbt_attainment, "share", "higher",
         ref.sim.tbt_attainment_applies},
        {"sim_ttft_attainment", ref.sim.ttft_attainment, "share", "higher"},
        {"sim_goodput_rps", ref.sim.goodput_rps, "req/s", "higher"},
    };
    std::printf("end-to-end metrics (median of %zu timed drives):\n",
                walls.size());
  } else {
    // Probes and replays: outside every timed drive. Every run of a drive
    // is re-run with a hold probe, the reported one with its schedule
    // logged; together they must repeat the drive's event digest.
    Replay sim_replay;
    Replay kv_replay;
    HoldStats reported_holds;
    const std::vector<const workload::Trace*> traces = w->Traces();
    if (!traces.empty()) {
      std::vector<sim::Simulator::ExecutedEvent> schedule;
      schedule.reserve(ref.events);
      std::uint64_t digest = DriveOut().event_digest;
      std::printf("frontend holds (later turns wait for their predecessor; "
                  "TTFT counts from dispatch):\n");
      for (std::size_t i = 0; i < traces.size(); ++i) {
        const bool reported = i + 1 == traces.size();
        const HoldStats h =
            w->Probe(*traces[i], reported ? &schedule : nullptr);
        digest = Mix(digest, h.event_digest);
        std::printf("  %-16s requests %7zu  later-turn share %.6f  "
                    "held share %.6f  hold mean %.3f ms  p99 %.3f ms\n",
                    i < ref.points.size()
                        ? (std::to_string(static_cast<int>(
                               ref.points[i].rate_rps)) + " req/s").c_str()
                        : "reported run",
                    h.requests, LaterTurnShare(*traces[i]), h.held_share(),
                    h.hold_ms.Mean(), h.hold_ms.Quantile(0.99));
        if (reported) reported_holds = h;
      }
      if (digest != ref.event_digest) {
        errors.push_back("probe runs do not repeat the drive's event digest");
      }
      log.set_run(2000);
      sim_replay = ReplaySchedule(schedule, spans);
      if (!sim_replay.ok) errors.push_back("schedule replay diverged");
      kv_replay = ReplayKv(*traces.back(), w->pool_capacity_tokens(), spans);
    }

    const std::map<std::string, LayerTime> self = log.SelfTimes();
    std::printf("layer self time (traced run, %zu spans):\n",
                log.spans().size());
    std::printf("  %-22s %8s %14s %14s\n", "span", "calls", "self_ms",
                "total_ms");
    for (const auto& [name, t] : self) {
      std::printf("  %-22s %8zu %14.3f %14.3f\n", name.c_str(), t.calls,
                  static_cast<double>(t.self_ns) * 1e-6,
                  static_cast<double>(t.total_ns) * 1e-6);
    }
    // Span durations by name, and each traced drive's harness.drive calls
    // in order (one per RunWorkload call: one, or one per rate point).
    std::map<std::string, std::vector<double>> span_ms;
    std::map<std::int64_t, std::vector<double>> calls_by_drive;
    for (const Span& s : log.spans()) {
      const double ms = static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      span_ms[s.name].push_back(ms);
      if (s.name == "harness.drive" && s.parent >= 0 &&
          log.spans()[static_cast<std::size_t>(s.parent)].name ==
              "bench.drive") {
        calls_by_drive[s.parent].push_back(ms);
      }
    }
    auto median_ms = [&span_ms](const char* name) {
      auto it = span_ms.find(name);
      return it == span_ms.end() ? 0.0 : Median(it->second);
    };
    std::vector<double> drive_ms;  // harness time per traced drive
    std::vector<std::vector<double>> per_call;
    for (const auto& [drive, calls] : calls_by_drive) {
      drive_ms.push_back(std::accumulate(calls.begin(), calls.end(), 0.0));
      per_call.resize(std::max(per_call.size(), calls.size()));
      for (std::size_t i = 0; i < calls.size(); ++i) {
        per_call[i].push_back(calls[i]);
      }
    }
    if (per_call.size() > 1) {
      std::printf("harness.drive per call (median ms):");
      for (std::size_t i = 0; i < per_call.size(); ++i) {
        if (i < ref.points.size()) {
          std::printf(" %.0freq/s:%.3f", ref.points[i].rate_rps,
                      Median(per_call[i]));
        } else {
          std::printf(" latency-run:%.3f", Median(per_call[i]));
        }
      }
      std::printf("\n");
    }
    const double traced_wall_s = Median(traced_walls);
    std::printf("tracing overhead: traced wall %.6f s - untraced wall %.6f s "
                "= %.6f s\n",
                traced_wall_s, wall_s, traced_wall_s - wall_s);

    const InputFacts facts = w->Facts();
    const LayerCounters& l = ref.layers;
    metrics = {
        {"sim.events", l.events, "count", "lower"},
        {"sim.events_per_request", l.events / static_cast<double>(c.attempted),
         "count", "lower"},
        {"sim.replay_ns_per_event", sim_replay.ns_per_item, "ns", "lower"},
        {"harness.drive_ms", Median(drive_ms), "ms", "lower"},
        {"harness.peak_in_flight", l.peak_in_flight, "count", "lower"},
        {"workload.generate_ms", median_ms("workload.generate"), "ms",
         "lower"},
        {"workload.requests", facts.requests, "count", "higher"},
        {"workload.reused_token_share", facts.reused_token_share, "share", "higher"},
        {"workload.later_turn_share", facts.later_turn_share, "share",
         "lower"},
        {"core.estimator_build_ms", median_ms("core.estimator_build"), "ms",
         "lower"},
        {"core.preemptions", l.preemptions, "count", "lower"},
        {"core.bubble_ratio", l.bubble_ratio, "share", "lower"},
        {"core.partition_changes", l.partition_changes, "count", "lower"},
        {"gpu.util_pct", l.gpu_util_pct, "%", "higher"},
        {"kv.cache_hit_rate", l.kv_cache_hit_rate, "share", "higher"},
        {"kv.replay_ns_per_request", kv_replay.ns_per_item, "ns", "lower"},
        {"kv.replay_hit_rate", kv_replay.hit_rate, "share", "higher"},
        {"kv.spills", l.kv_spills, "count", "lower"},
        {"kv.recomputes", l.kv_recomputes, "count", "lower"},
        {"kv.restores", l.kv_restores, "count", "higher"},
        {"route.affinity_hit_share", l.route_affinity_hit_share, "share",
         "higher"},
        {"route.session_hits", l.route_session_hits, "count", "higher"},
        {"route.load_imbalance", l.route_load_imbalance, "ratio", "lower"},
        {"serve.tbt_p99_ms", ref.sim.tbt_p99_ms, "ms", "lower"},
        {"serve.held_share", reported_holds.held_share(), "share", "lower"},
        {"serve.hold_mean_ms", reported_holds.hold_ms.Mean(), "ms", "lower"},
        {"serve.metric_bytes", l.metric_bytes, "bytes", "lower"},
        {"serve.sketch_overflowed", l.sketch_overflowed, "count", "lower"},
        {"serve.queue_delay_p99_ms.interactive", l.queue_delay_p99_ms[0], "ms",
         "lower"},
        {"serve.queue_delay_p99_ms.standard", l.queue_delay_p99_ms[1], "ms",
         "lower"},
        {"serve.queue_delay_p99_ms.batch", l.queue_delay_p99_ms[2], "ms",
         "lower"},
        {"overload.mode_transitions", l.overload_mode_transitions, "count", "lower"},
        {"overload.shed.interactive", l.shed[0], "count", "lower"},
        {"overload.shed.standard", l.shed[1], "count", "lower"},
        {"overload.shed.batch", l.shed[2], "count", "lower"},
        {"trace.overhead_ms", (traced_wall_s - wall_s) * 1e3, "ms", "lower"},
    };
    std::printf("per-layer metrics:\n");

    if (!opt.spans_out.empty()) {
      std::ofstream out(opt.spans_out);
      for (const Span& s : log.spans()) {
        out << "{\"name\": \"" << s.name << "\", \"start_ns\": " << s.start_ns
            << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
            << ", \"run\": " << s.run << "}\n";
      }
      if (!out) errors.push_back("cannot write spans to " + opt.spans_out);
    }
  }
  PrintMetrics(metrics);

  for (const std::string& e : errors) {
    std::printf("CORRECTNESS FAILURE: %s\n", e.c_str());
  }
  const bool correct = errors.empty();
  PrintResultLine(correct, run_counts.attempted, run_counts.unfinished,
                  metrics);
  return correct ? 0 : 1;
}

/** Runs every workload, each in its own child process. */
int RunAll(const Options& opt) {
  int status_all = 0;
  for (const char* name : kWorkloadNames) {
    std::fflush(stdout);
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      return 1;
    }
    if (pid == 0) {
      Options child = opt;
      child.workload = name;
      if (!opt.spans_out.empty()) child.spans_out += std::string(".") + name;
      const int rc = RunOne(child);
      std::fflush(stdout);
      _exit(rc);
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::printf("workload %s FAILED\n", name);
      status_all = 1;
    }
  }
  return status_all;
}

bool ParseArgs(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (arg == "--workload" && (v = value())) {
      opt->workload = v;
    } else if (arg == "--seed" && (v = value())) {
      opt->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds" && (v = value())) {
      opt->seconds = std::atof(v);
    } else if (arg == "--trace" && (v = value())) {
      opt->trace = std::string(v) == "1";
    } else if (arg == "--spans-out" && (v = value())) {
      opt->spans_out = v;
    } else {
      return false;
    }
  }
  return !opt->workload.empty() && opt->seconds >= 0;
}

}  // namespace
}  // namespace muxwise::perfbench

int main(int argc, char** argv) {
  using namespace muxwise::perfbench;
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: muxbench --workload <name|all> [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE]\n");
    return 2;
  }
  return opt.workload == "all" ? RunAll(opt) : RunOne(opt);
}
