#ifndef MUXWISE_FAULT_FAULT_AWARE_H_
#define MUXWISE_FAULT_FAULT_AWARE_H_

#include <cstdint>
#include <vector>

#include "fault/recovery.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/slo.h"

namespace muxwise::fault {

/**
 * Mixin base for engines that survive injected faults. It centralises
 * the bookkeeping every recovering engine needs — which domains are
 * down, the crash epoch that invalidates in-flight callbacks, degraded
 * outcome counters, deadline/shed/retry policy decisions — while
 * leaving the actual work reconstruction (what KV was lost, what to
 * re-enqueue where) to the engine, which is the only layer that knows.
 *
 * The epoch pattern: HostThread submissions and sim::Channel transfers
 * cannot be cancelled, so a crash cannot revoke callbacks already in
 * flight. Instead every engine-layer callback captures `epoch()` at
 * submission and no-ops when the engine's epoch has moved on — the
 * simulated analogue of dropping completions from a device generation
 * that no longer exists. (tools/muxlint's dangling-callback rule flags
 * completion lambdas in fault-capable engines that skip this guard.)
 */
class FaultAwareEngine : public serve::Engine {
 public:
  const RecoveryPolicy& recovery() const { return recovery_; }

  /** Requests rejected at admission under overload/outage. */
  std::size_t shed_requests() const { return shed_requests_; }

  /** Requests abandoned past their SLO-derived deadline. */
  std::size_t timed_out_requests() const { return timed_out_requests_; }

  /** Requests that exhausted their crash-retry budget. */
  std::size_t failed_requests() const { return failed_requests_; }

  /** Crash-lost requests successfully re-enqueued. */
  std::size_t crash_requeues() const { return crash_requeues_; }

 protected:
  FaultAwareEngine(sim::Simulator* simulator, workload::SloTargets slo,
                   RecoveryPolicy policy)
      : fault_sim_(simulator), slo_(slo), recovery_(policy) {
    MUX_CHECK(fault_sim_ != nullptr);
  }

  bool FaultsEnabled() const { return recovery_.enabled; }

  bool DomainDown(std::size_t domain) const {
    return domain < down_.size() && down_[domain];
  }

  bool AnyDomainDown() const {
    for (bool down : down_) {
      if (down) return true;
    }
    return false;
  }

  void MarkDown(std::size_t domain, bool down) {
    if (domain >= down_.size()) down_.resize(domain + 1, false);
    down_[domain] = down;
  }

  /**
   * Callback-invalidation epoch. Bumped by every crash; lambdas compare
   * their captured value against this before touching engine state.
   */
  std::uint64_t epoch() const { return epoch_; }
  void BumpEpoch() { ++epoch_; }

  /** Absolute give-up time for `request` under this engine's policy. */
  sim::Time DeadlineFor(const serve::Request& request) const {
    return RequestDeadline(request.arrival, *request.spec, slo_, recovery_);
  }

  bool DeadlinePassed(const serve::Request& request) const {
    return recovery_.enabled && fault_sim_->Now() >= request.deadline;
  }

  /**
   * Stamps a degraded terminal outcome (kShed/kTimedOut/kFailed) and
   * bumps the matching counter. The caller still owns notification and
   * in-flight accounting.
   */
  void MarkTerminal(serve::Request& request, serve::Outcome outcome) {
    MUX_CHECK(serve::IsTerminalOutcome(outcome) &&
              outcome != serve::Outcome::kCompleted);
    request.outcome = outcome;
    request.phase = serve::Phase::kDone;
    request.completion = fault_sim_->Now();
    switch (outcome) {
      case serve::Outcome::kShed:
        ++shed_requests_;
        break;
      case serve::Outcome::kTimedOut:
        ++timed_out_requests_;
        break;
      default:
        ++failed_requests_;
        break;
    }
  }

  /** KV working-set tokens a request will eventually need (shed proxy). */
  static std::int64_t DemandTokens(const serve::Request& request) {
    return request.spec->input_tokens + request.spec->output_tokens;
  }

  /**
   * Admission-control decision: shed when the queued KV demand
   * (including the candidate) exceeds the policy factor of capacity.
   */
  bool ShedNow(std::int64_t queued_demand, std::int64_t capacity) const {
    return recovery_.enabled &&
           static_cast<double>(queued_demand) >
               recovery_.shed_demand_factor * static_cast<double>(capacity);
  }

  /**
   * Resets a crash-lost request for re-enqueue: phase back to queued,
   * prefill progress and pool bookkeeping zeroed (its KV is gone), but
   * `generated`/`token_times` kept — tokens already streamed to the
   * client are durable, so recovery recomputes the lost KV over
   * input + generated and resumes decode, preserving the original TTFT.
   * Returns false when the retry budget is spent; the caller marks the
   * request kFailed instead.
   */
  bool PrepareRetry(serve::Request& request) {
    ++request.crash_retries;
    if (request.crash_retries > recovery_.max_crash_retries) return false;
    ++crash_requeues_;
    request.outcome = serve::Outcome::kRetrying;
    request.phase = serve::Phase::kQueued;
    request.progress = 0;
    request.cached_tokens = 0;
    request.prefill_tokens = 0;
    request.reserved_tokens = 0;
    return true;
  }

  sim::Simulator* fault_sim_;

 private:
  workload::SloTargets slo_;
  RecoveryPolicy recovery_;
  std::vector<bool> down_;
  std::uint64_t epoch_ = 0;
  std::size_t shed_requests_ = 0;
  std::size_t timed_out_requests_ = 0;
  std::size_t failed_requests_ = 0;
  std::size_t crash_requeues_ = 0;
};

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_FAULT_AWARE_H_
