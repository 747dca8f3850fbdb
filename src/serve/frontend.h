#ifndef MUXWISE_SERVE_FRONTEND_H_
#define MUXWISE_SERVE_FRONTEND_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "serve/engine.h"
#include "serve/metrics.h"
#include "sim/simulator.h"
#include "workload/request_spec.h"

namespace muxwise::serve {

/**
 * Replays a workload trace into an engine.
 *
 * Arrivals are released one at a time: only the next arrival is ever
 * pending on the simulator, and each arrival schedules its successor.
 * Every arrival runs under an event serial reserved in trace-index order
 * at Start(), so the run orders, and digests, exactly as if every
 * arrival had been scheduled up front.
 *
 * Clients in multi-turn workloads cannot send turn k+1 before reading
 * the response to turn k, so the frontend holds a session's next request
 * until its predecessor completes (its arrival timestamp is a lower
 * bound). Completions are fed to a MetricsCollector and released back to
 * the caller's bookkeeping.
 */
class Frontend {
 public:
  Frontend(sim::Simulator* simulator, Engine* engine,
           const workload::Trace* trace, MetricsCollector* metrics);

  Frontend(const Frontend&) = delete;
  Frontend& operator=(const Frontend&) = delete;

  /**
   * Reserves one event serial per request and schedules the first
   * arrival; call once before Simulator::Run(). Arrivals fire in
   * (arrival time, trace index) order, arrival times before Now()
   * clamped to Now(), so the trace need not be sorted.
   */
  void Start();

  /** Requests whose arrival event has fired. */
  std::size_t arrived() const { return arrived_; }
  std::size_t dispatched() const { return dispatched_; }
  std::size_t completed() const { return completed_; }
  bool AllCompleted() const {
    return completed_ == trace_->requests.size();
  }

  /** Time the last request completed (0 if none yet). */
  sim::Time last_completion() const { return last_completion_; }

 private:
  /** Arrival time of trace request `index`, clamped to Start()'s Now(). */
  sim::Time ArrivalTime(std::size_t index) const;
  /** Schedules the next arrival in `arrival_order_`, if any remain. */
  void ScheduleNextArrival();
  void OnArrival(std::size_t index);
  void Dispatch(std::size_t index);
  void OnComplete(std::unique_ptr<Request> request);

  /** True when every earlier turn of the request's session completed. */
  bool PredecessorDone(const workload::RequestSpec& spec) const;

  sim::Simulator* sim_;
  Engine* engine_;
  const workload::Trace* trace_;
  MetricsCollector* metrics_;

  enum class State { kPending, kArrived, kDispatched, kCompleted };
  std::vector<State> states_;
  std::unordered_map<std::int64_t, int> session_completed_turns_;
  // session -> indices of arrived-but-held requests.
  std::unordered_map<std::int64_t, std::vector<std::size_t>> held_;

  // Trace indices in firing order, the serial reserved for index 0, and
  // how many arrivals have been scheduled so far.
  std::vector<std::size_t> arrival_order_;
  sim::EventId first_arrival_id_ = sim::kInvalidEventId;
  sim::Time start_ = 0;
  std::size_t next_arrival_ = 0;

  std::size_t arrived_ = 0;
  std::size_t dispatched_ = 0;
  std::size_t completed_ = 0;
  sim::Time last_completion_ = 0;
};

}  // namespace muxwise::serve

#endif  // MUXWISE_SERVE_FRONTEND_H_
