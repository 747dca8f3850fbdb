#include "serve/frontend.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "sim/logging.h"

namespace muxwise::serve {

Frontend::Frontend(sim::Simulator* simulator, Engine* engine,
                   const workload::Trace* trace, MetricsCollector* metrics)
    : sim_(simulator), engine_(engine), trace_(trace), metrics_(metrics) {
  MUX_CHECK(sim_ != nullptr && engine_ != nullptr && trace_ != nullptr);
  states_.assign(trace_->requests.size(), State::kPending);
  engine_->set_on_complete(
      [this](std::unique_ptr<Request> request) {
        OnComplete(std::move(request));
      });
}

void Frontend::Start() {
  const std::size_t n = trace_->requests.size();
  if (n == 0) return;
  MUX_CHECK(arrival_order_.empty());  // Start() runs once.
  start_ = sim_->Now();
  first_arrival_id_ = sim_->ReserveIds(n);
  arrival_order_.resize(n);
  std::iota(arrival_order_.begin(), arrival_order_.end(), std::size_t{0});
  // Equal arrival times keep index order, as their serials do.
  std::sort(arrival_order_.begin(), arrival_order_.end(),
            [this](std::size_t a, std::size_t b) {
              const sim::Time ta = ArrivalTime(a);
              const sim::Time tb = ArrivalTime(b);
              return ta != tb ? ta < tb : a < b;
            });
  ScheduleNextArrival();
}

sim::Time Frontend::ArrivalTime(std::size_t index) const {
  return std::max(start_,
                  sim::Seconds(trace_->requests[index].arrival_seconds));
}

void Frontend::ScheduleNextArrival() {
  if (next_arrival_ == arrival_order_.size()) return;
  const std::size_t index = arrival_order_[next_arrival_++];
  sim_->ScheduleReserved(ArrivalTime(index), first_arrival_id_ + index,
                         [this, index] {
                           ScheduleNextArrival();
                           OnArrival(index);
                         });
}

bool Frontend::PredecessorDone(const workload::RequestSpec& spec) const {
  if (spec.session_seq == 0) return true;
  auto it = session_completed_turns_.find(spec.session);
  const int done = it == session_completed_turns_.end() ? 0 : it->second;
  return done >= spec.session_seq;
}

void Frontend::OnArrival(std::size_t index) {
  MUX_CHECK(states_[index] == State::kPending);
  states_[index] = State::kArrived;
  ++arrived_;
  const workload::RequestSpec& spec = trace_->requests[index];
  if (PredecessorDone(spec)) {
    Dispatch(index);
  } else {
    held_[spec.session].push_back(  // muxlint: allow(unbounded-queue) —
                                    // holds at most the session's future
                                    // turns, bounded by the finite trace.
        index);
  }
}

void Frontend::Dispatch(std::size_t index) {
  MUX_CHECK(states_[index] == State::kArrived);
  states_[index] = State::kDispatched;
  ++dispatched_;
  auto request = std::make_unique<Request>(&trace_->requests[index]);
  request->arrival = sim_->Now();
  engine_->Enqueue(std::move(request));
}

void Frontend::OnComplete(std::unique_ptr<Request> request) {
  const workload::RequestSpec* const first = trace_->requests.data();
  MUX_CHECK(request->spec >= first &&
            request->spec < first + trace_->requests.size());
  const auto index = static_cast<std::size_t>(request->spec - first);
  MUX_CHECK(states_[index] == State::kDispatched);
  states_[index] = State::kCompleted;
  ++completed_;
  last_completion_ = sim_->Now();
  if (metrics_ != nullptr) metrics_->OnRequestComplete(*request);

  // Release the next held turn of this session, if its time has come.
  const workload::RequestSpec& spec = *request->spec;
  int& done = session_completed_turns_[spec.session];
  done = std::max(done, spec.session_seq + 1);
  auto held_it = held_.find(spec.session);
  if (held_it != held_.end()) {
    auto& queue = held_it->second;
    // Dispatch every held request whose predecessors are now complete
    // (normally just the next turn).
    std::vector<std::size_t> ready;
    for (auto qi = queue.begin(); qi != queue.end();) {
      if (PredecessorDone(trace_->requests[*qi])) {
        ready.push_back(*qi);
        qi = queue.erase(qi);
      } else {
        ++qi;
      }
    }
    for (std::size_t r : ready) Dispatch(r);
  }
}

}  // namespace muxwise::serve
