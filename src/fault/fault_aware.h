#ifndef MUXWISE_FAULT_FAULT_AWARE_H_
#define MUXWISE_FAULT_FAULT_AWARE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "check/invariant_registry.h"
#include "fault/recovery.h"
#include "serve/engine.h"
#include "serve/request.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/slo.h"

namespace muxwise::fault {

/**
 * Base for engines that survive injected faults, and the one owner of
 * every such engine's request ledger: the in-flight count, the queued
 * KV demand, and every terminal transition. Engines own their queues
 * and KV pools; they report each ledger move through the helpers below
 * — Admit/AdmitOrShed on arrival, LeaveQueue when compute starts,
 * Retire for all four outcomes, RetryAfterCrash for crash-lost work —
 * and the base keeps the books, the outcome counters, and the single
 * "request-ledger" audit that checks both drain to zero.
 *
 * The base also tracks which domains are down and the crash epoch that
 * invalidates in-flight callbacks. HostThread submissions and
 * sim::Channel transfers cannot be cancelled, so a crash cannot revoke
 * callbacks already in flight. Instead every engine-layer callback
 * captures `epoch()` at submission and no-ops when the engine's epoch
 * has moved on — the simulated analogue of dropping completions from a
 * device generation that no longer exists. (tools/muxlint's
 * dangling-callback rule flags completion lambdas in fault-capable
 * engines that skip this guard.)
 */
class FaultAwareEngine : public serve::Engine {
 public:
  std::size_t InFlight() const final { return in_flight_; }

  /** Registers the ledger audit; overrides add their own and call this. */
  void RegisterAudits(check::InvariantRegistry& registry) const override {
    registry.Register(
        name(), "request-ledger", [this](check::AuditContext& ctx) {
          ctx.Check(in_flight_ == 0, std::to_string(in_flight_) +
                                         " requests still in flight");
          ctx.Check(queued_demand_ == 0,
                    "queued-demand accounting leaked " +
                        std::to_string(queued_demand_) + " tokens");
        });
  }

  /** Requests rejected at admission under overload/outage. */
  std::size_t shed_requests() const { return shed_requests_; }

  /** Requests abandoned past their SLO-derived deadline. */
  std::size_t timed_out_requests() const { return timed_out_requests_; }

  /** Requests that exhausted their crash-retry budget. */
  std::size_t failed_requests() const { return failed_requests_; }

  /** Crash-lost requests actually re-enqueued (or re-dispatched). */
  std::size_t crash_requeues() const { return crash_requeues_; }

 protected:
  FaultAwareEngine(sim::Simulator* simulator, workload::SloTargets slo,
                   RecoveryPolicy policy)
      : fault_sim_(simulator), slo_(slo), recovery_(policy) {
    MUX_CHECK(fault_sim_ != nullptr);
  }

  bool DomainDown(std::size_t domain) const {
    return domain < down_.size() && down_[domain];
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

  bool DeadlinePassed(const serve::Request& request) const {
    return recovery_.enabled && fault_sim_->Now() >= request.deadline;
  }

  /** KV working-set tokens a request will eventually need (shed proxy). */
  static std::int64_t DemandTokens(const serve::Request& request) {
    return request.spec->input_tokens + request.spec->output_tokens;
  }

  // --- The request ledger --------------------------------------------

  /**
   * Admission prologue: sheds `request` — stamped kShed, notified, and
   * false returned — when recovery is enabled and its demand on top of
   * the queued demand exceeds the policy factor of `capacity`;
   * otherwise admits it (see Admit) and returns true.
   */
  bool AdmitOrShed(std::unique_ptr<serve::Request>& request,
                   std::int64_t capacity) {
    if (ShedNow(queued_demand_ + DemandTokens(*request), capacity)) {
      Shed(std::move(request));
      return false;
    }
    Admit(*request);
    return true;
  }

  /**
   * Counts `request` in flight with its demand queued. With recovery
   * enabled it also arms the SLO-derived deadline, whose event hands the
   * request's id to TakeUnstarted.
   */
  void Admit(serve::Request& request) {
    if (recovery_.enabled) {
      request.deadline =
          RequestDeadline(request.arrival, *request.spec, slo_, recovery_);
      fault_sim_->ScheduleAt(request.deadline,
                             [this, id = request.spec->id] { Reap(id); });
    }
    EnterQueue(request);
    ++in_flight_;
  }

  /** Rejects a request that was never admitted. */
  void Shed(std::unique_ptr<serve::Request> request) {
    Stamp(*request, serve::Outcome::kShed);
    NotifyComplete(std::move(request));
  }

  /** Counts a request in flight whose queue and deadline live elsewhere. */
  void Accept() { ++in_flight_; }

  /** A request left without a terminal outcome (handed to its owner). */
  void HandOff() {
    MUX_CHECK(in_flight_ > 0);
    --in_flight_;
  }

  /** `request` (re-)enters the queue: its demand counts as queued. */
  void EnterQueue(const serve::Request& request) {
    queued_demand_ += DemandTokens(request);
  }

  /** `request` left the queue (compute started, or it is leaving). */
  void LeaveQueue(const serve::Request& request) {
    queued_demand_ -= DemandTokens(request);
    MUX_CHECK(queued_demand_ >= 0);
  }

  /**
   * Terminal transition for an in-flight request: stamps `outcome`,
   * phase and completion time, bumps the outcome's counter and stops
   * counting it in flight. The caller notifies — NotifyComplete can
   * re-enter Enqueue, so it comes once engine state is consistent.
   */
  void Retire(serve::Request& request, serve::Outcome outcome) {
    Stamp(request, outcome);
    HandOff();
  }

  /**
   * Resets a crash-lost request for re-enqueue: phase back to queued,
   * prefill progress and pool bookkeeping zeroed (its KV is gone), but
   * `generated`/`token_times` kept — tokens already streamed to the
   * client are durable, so recovery recomputes the lost KV over
   * input + generated and resumes decode, preserving the original TTFT.
   * Returns false when the retry budget is spent.
   */
  bool PrepareRetry(serve::Request& request) {
    ++request.crash_retries;
    if (request.crash_retries > recovery_.max_crash_retries) return false;
    request.outcome = serve::Outcome::kRetrying;
    request.phase = serve::Phase::kQueued;
    request.progress = 0;
    request.cached_tokens = 0;
    request.prefill_tokens = 0;
    request.reserved_tokens = 0;
    return true;
  }

  /**
   * One crash-triage step for a request whose KV was lost (its pool
   * accounting already released): retires it as kFailed when the retry
   * budget is spent, or as kTimedOut when its deadline passed while it
   * was admitted; otherwise resets it, queues its demand, counts the
   * requeue, and returns true — the caller puts it back at the head of
   * its queue, ahead of fresh arrivals. A retired request is the
   * caller's to notify.
   */
  bool RetryAfterCrash(serve::Request& request) {
    if (!PrepareRetry(request)) {
      Retire(request, serve::Outcome::kFailed);
      return false;
    }
    if (DeadlinePassed(request)) {
      Retire(request, serve::Outcome::kTimedOut);
      return false;
    }
    EnterQueue(request);
    CountRequeue();
    return true;
  }

  void CountRequeue() { ++crash_requeues_; }

  /**
   * Deadline hook: detaches request `id` if it has not started compute
   * — work that won admission always runs to completion — and returns
   * it with its demand out of the queue (see TakeQueued); nullptr when
   * it already started, finished or left.
   */
  virtual std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id) {
    (void)id;
    return nullptr;
  }

  /**
   * Detaches the entry of `queue` for request `id` — a queue of request
   * pointers, or of pointers to wrappers holding one as `request` — or
   * returns nullptr.
   */
  template <typename Queue>
  static typename Queue::value_type TakeById(Queue& queue, std::int64_t id) {
    const auto it =
        std::find_if(queue.begin(), queue.end(), [id](const auto& entry) {
          return RequestOf(*entry).spec->id == id;
        });
    if (it == queue.end()) return nullptr;
    typename Queue::value_type entry = std::move(*it);
    queue.erase(it);
    return entry;
  }

  /** TakeById from a queue whose requests' demand counts as queued. */
  template <typename Queue>
  std::unique_ptr<serve::Request> TakeQueued(Queue& queue, std::int64_t id) {
    std::unique_ptr<serve::Request> request = TakeById(queue, id);
    if (request != nullptr) LeaveQueue(*request);
    return request;
  }

  sim::Simulator* fault_sim_;

 private:
  /**
   * Admission-control decision: shed when the queued KV demand
   * (including the candidate) exceeds the policy factor of capacity.
   */
  bool ShedNow(std::int64_t queued_demand, std::int64_t capacity) const {
    return recovery_.enabled &&
           static_cast<double>(queued_demand) >
               recovery_.shed_demand_factor * static_cast<double>(capacity);
  }

  static const serve::Request& RequestOf(const serve::Request& request) {
    return request;
  }
  template <typename Wrapper>
  static const serve::Request& RequestOf(const Wrapper& wrapper) {
    return *wrapper.request;
  }

  void Reap(std::int64_t id) {
    std::unique_ptr<serve::Request> request = TakeUnstarted(id);
    if (request == nullptr) return;
    Retire(*request, serve::Outcome::kTimedOut);
    NotifyComplete(std::move(request));
  }

  void Stamp(serve::Request& request, serve::Outcome outcome) {
    MUX_CHECK(serve::IsTerminalOutcome(outcome));
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
      case serve::Outcome::kFailed:
        ++failed_requests_;
        break;
      default:
        break;
    }
  }

  workload::SloTargets slo_;
  RecoveryPolicy recovery_;
  std::vector<bool> down_;
  std::uint64_t epoch_ = 0;
  std::size_t in_flight_ = 0;

  /** KV demand (input + output tokens) of admitted, unstarted requests. */
  std::int64_t queued_demand_ = 0;
  std::size_t shed_requests_ = 0;
  std::size_t timed_out_requests_ = 0;
  std::size_t failed_requests_ = 0;
  std::size_t crash_requeues_ = 0;
};

}  // namespace muxwise::fault

#endif  // MUXWISE_FAULT_FAULT_AWARE_H_
