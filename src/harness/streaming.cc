#include "harness/streaming.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <unordered_map>
#include <utility>

#include "kv/token_seq.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/request_spec.h"

namespace muxwise::harness {

namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/** Uniform in (0, 1]: counter-based, so request i's draws never depend
 * on how many draws earlier requests made. */
double U01(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  const std::uint64_t bits = SplitMix64(SplitMix64(seed ^ tag) ^ index);
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

std::int64_t SampleLength(const StreamingLengths& lengths, std::uint64_t seed,
                          std::uint64_t tag, std::uint64_t index) {
  const double excess = std::max(0.0,
                                 lengths.mean - static_cast<double>(lengths.min));
  const double draw = -std::log(U01(seed, tag, index)) * excess;
  const std::int64_t value =
      lengths.min + static_cast<std::int64_t>(draw);
  return std::clamp<std::int64_t>(value, std::max<std::int64_t>(1, lengths.min),
                                  std::max<std::int64_t>(1, lengths.max));
}

constexpr std::uint64_t kArrivalTag = 0x61727269;  // "arri"
constexpr std::uint64_t kInputTag = 0x696e7075;    // "inpu"
constexpr std::uint64_t kOutputTag = 0x6f757470;   // "outp"

/**
 * Lazily generates and injects the stream: exactly one arrival event is
 * pending at any time (each injection schedules the next), and a spec
 * lives only from injection to completion. All O(total) state — the
 * materialized trace, the full-sample latency vectors — is gone; what
 * remains is bounded by the engine's in-flight window.
 */
class StreamingDriver {
 public:
  StreamingDriver(sim::Simulator* simulator, serve::Engine* engine,
                  serve::MetricsCollector* metrics, const StreamingSpec& spec,
                  StreamingOutcome* outcome)
      : sim_(simulator),
        engine_(engine),
        metrics_(metrics),
        spec_(spec),
        outcome_(outcome) {
    engine_->set_on_complete([this](std::unique_ptr<serve::Request> request) {
      OnComplete(std::move(request));
    });
  }

  void Start() {
    if (spec_.total_requests == 0) return;
    AdvanceArrival();
    ScheduleNext();
  }

  std::uint64_t terminal() const { return terminal_; }
  std::size_t in_flight() const { return in_flight_.size(); }

 private:
  void AdvanceArrival() {
    const double u = U01(spec_.seed, kArrivalTag, next_index_);
    next_arrival_seconds_ += -std::log(u) / spec_.rate_per_second;
  }

  void ScheduleNext() {
    const sim::Time when = std::max(
        sim_->Now(), sim::Seconds(next_arrival_seconds_));
    sim_->ScheduleAt(when, [this] { Inject(); });
  }

  void Inject() {
    const std::uint64_t index = next_index_++;
    auto spec = std::make_unique<workload::RequestSpec>();
    spec->id = static_cast<std::int64_t>(index) + 1;
    spec->arrival_seconds = next_arrival_seconds_;
    spec->session = spec->id;  // Single-turn: one session per request.
    spec->session_seq = 0;
    // Stream ids start at 1: stream 0 is the shared system-prompt
    // stream, and distinct streams share no prefix — so the radix tree
    // and KV pool see 10^7 distinct contexts, never a 10^7-wide match.
    const std::int64_t stream = spec->id;
    const std::int64_t input =
        SampleLength(spec_.input, spec_.seed, kInputTag, index);
    const std::int64_t output =
        SampleLength(spec_.output, spec_.seed, kOutputTag, index);
    spec->prompt = {kv::TokenSpan{stream, 0, input}};
    spec->full_seq = {kv::TokenSpan{stream, 0, input + output}};
    spec->input_tokens = input;
    spec->reused_tokens = 0;
    spec->output_tokens = output;

    auto request = std::make_unique<serve::Request>(spec.get());
    request->arrival = sim_->Now();
    in_flight_.emplace(spec->id, std::move(spec));
    outcome_->peak_in_flight =
        std::max(outcome_->peak_in_flight, in_flight_.size());
    engine_->Enqueue(std::move(request));

    if (next_index_ < spec_.total_requests) {
      AdvanceArrival();
      ScheduleNext();
    }
  }

  void OnComplete(std::unique_ptr<serve::Request> request) {
    const std::int64_t id = request->spec->id;
    ++terminal_;
    ReportProgress();
    metrics_->OnRequestComplete(*request);
    if (spec_.exact_subsample_period > 0 && request->first_token >= 0 &&
        static_cast<std::uint64_t>(id - 1) % spec_.exact_subsample_period ==
            0) {
      outcome_->ttft_subsample_ms.push_back(
          sim::ToMilliseconds(request->Ttft()));
    }
    request.reset();  // Drop the engine-side state before the spec.
    const std::size_t erased = in_flight_.erase(id);
    MUX_CHECK(erased == 1);
  }

  /**
   * Optional wall-clock progress on stderr, every
   * $MUXWISE_STREAMING_PROGRESS completions. Diagnostic only — prints
   * nothing unless the variable is set, and never touches simulation
   * state, so digests are unaffected.
   */
  void ReportProgress() {
    static const long window = [] {
      const char* env = std::getenv("MUXWISE_STREAMING_PROGRESS");
      return env != nullptr ? std::atol(env) : 0;
    }();
    if (window <= 0 || terminal_ % static_cast<std::uint64_t>(window) != 0) {
      return;
    }
    // Wall-clock is acceptable here: diagnostic stderr only, never
    // observable by the simulation.
    const auto now = std::chrono::steady_clock::now();  // muxlint: allow(wall-clock)
    if (last_progress_.time_since_epoch().count() != 0) {
      const double secs =
          std::chrono::duration<double>(now - last_progress_).count();  // muxlint: allow(wall-clock)
      std::fprintf(stderr, "[streaming] %llu done, window %.2fs\n",
                   static_cast<unsigned long long>(terminal_), secs);
    }
    last_progress_ = now;
  }

  sim::Simulator* sim_;
  serve::Engine* engine_;
  serve::MetricsCollector* metrics_;
  const StreamingSpec spec_;
  StreamingOutcome* outcome_;

  std::chrono::steady_clock::time_point last_progress_{};  // muxlint: allow(wall-clock)
  std::uint64_t next_index_ = 0;
  double next_arrival_seconds_ = 0.0;
  std::uint64_t terminal_ = 0;
  std::unordered_map<std::int64_t, std::unique_ptr<workload::RequestSpec>>
      in_flight_;
};

}  // namespace

StreamingOutcome RunStreamingWorkload(
    EngineKind kind, const serve::Deployment& deployment,
    const StreamingSpec& spec,
    const core::ContentionEstimator* shared_estimator,
    const RunConfig& config) {
  MUX_CHECK(spec.rate_per_second > 0.0);

  sim::Simulator simulator;
  StreamingOutcome outcome;
  outcome.engine = EngineKindName(kind);
  outcome.total = spec.total_requests;
  if (spec.exact_subsample_period > 0) {
    outcome.ttft_subsample_ms.reserve(
        static_cast<std::size_t>(spec.total_requests /
                                 spec.exact_subsample_period) +
        1);
  }

  EngineInstance instance =
      MakeEngine(kind, &simulator, deployment, shared_estimator, config);
  if (instance.muxwise != nullptr) {
    // One PartitionSample lands per scheduling decision; at streaming
    // scale that is an unbounded vector, so keep only an illustrative
    // prefix (the driver never reads the trace anyway).
    instance.muxwise->set_partition_trace_capacity(4096);
  }
  serve::MetricsCollector metrics(deployment.slo);
  StreamingDriver driver(&simulator, instance.engine.get(), &metrics, spec,
                         &outcome);
  driver.Start();

  // Arrivals self-schedule, so "drained" really is "done": the queue
  // only empties once the last request reached a terminal state (or the
  // engine stalled, which leaves the queue empty too — the completion
  // count below distinguishes the two).
  simulator.Run(config.event_budget);
  if (!simulator.Empty()) {
    outcome.diagnostic =
        "event budget of " + std::to_string(config.event_budget) +
        " exhausted at " + sim::FormatDuration(simulator.Now()) + " with " +
        std::to_string(simulator.PendingEvents()) +
        " events still pending; livelocked scheduler?";
  } else if (driver.terminal() != spec.total_requests) {
    outcome.diagnostic =
        "stream stalled: " +
        std::to_string(spec.total_requests - driver.terminal()) + " of " +
        std::to_string(spec.total_requests) +
        " requests never reached a terminal state";
  }
  outcome.stable = outcome.diagnostic.empty();
  outcome.completed = metrics.Split().attained;

  outcome.ttft = metrics.Ttft();
  outcome.tbt = metrics.Tbt();
  outcome.e2e = metrics.E2e();
  outcome.ttft_sketch = metrics.ttft_sketch();

  const serve::MetricsCollector::SketchFold sketches = metrics.FoldSketches();
  outcome.metrics_state_digest = sketches.digest;
  outcome.metrics_overflowed = sketches.overflowed;
  outcome.metric_bytes = sketches.bytes;

  outcome.event_digest = simulator.EventDigest();
  outcome.executed_events = simulator.ExecutedEvents();

  if (outcome.stable) {
    RunScenarioAudits(simulator, *instance.engine, metrics, nullptr);
  }
  return outcome;
}

}  // namespace muxwise::harness
