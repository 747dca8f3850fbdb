#include "serve/frontend.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "serve/engine.h"
#include "sim/simulator.h"
#include "workload/datasets.h"
#include "workload/request_spec.h"

namespace muxwise::serve {
namespace {

/**
 * Test double: completes every request a fixed delay after dispatch,
 * emitting one token at dispatch+delay/2 and finishing at +delay.
 */
class FakeEngine : public Engine {
 public:
  FakeEngine(sim::Simulator* simulator, sim::Duration delay)
      : sim_(simulator), delay_(delay) {}

  const char* name() const override { return "fake"; }
  std::size_t InFlight() const override { return in_flight_; }

  void Enqueue(std::unique_ptr<Request> request) override {
    ++in_flight_;
    dispatch_times.push_back({request->spec->id, sim_->Now()});
    Request* raw = request.release();
    sim_->ScheduleAfter(delay_ / 2, [raw, this] { raw->EmitToken(sim_->Now()); });
    sim_->ScheduleAfter(delay_, [raw, this] {
      raw->EmitToken(sim_->Now());
      raw->completion = sim_->Now();
      --in_flight_;
      NotifyComplete(std::unique_ptr<Request>(raw));
    });
  }

  std::vector<std::pair<std::int64_t, sim::Time>> dispatch_times;

 private:
  sim::Simulator* sim_;
  sim::Duration delay_;
  std::size_t in_flight_ = 0;
};

workload::Trace TwoTurnTrace() {
  workload::Trace trace;
  trace.name = "two-turn";
  workload::RequestSpec turn0;
  turn0.id = 0;
  turn0.arrival_seconds = 0.0;
  turn0.session = 1;
  turn0.session_seq = 0;
  turn0.prompt = {{1, 0, 100}};
  turn0.full_seq = {{1, 0, 110}};
  turn0.input_tokens = 100;
  turn0.output_tokens = 10;
  workload::RequestSpec turn1 = turn0;
  turn1.id = 1;
  turn1.arrival_seconds = 0.001;  // Arrives before turn 0 completes.
  turn1.session_seq = 1;
  turn1.prompt = {{1, 0, 150}};
  turn1.full_seq = {{1, 0, 160}};
  turn1.reused_tokens = 110;
  trace.requests = {turn0, turn1};
  return trace;
}

TEST(FrontendTest, DispatchesAtArrivalTime) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(10));
  workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kShareGpt, 20, 5.0, 3);
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  simulator.Run();
  EXPECT_TRUE(frontend.AllCompleted());
  EXPECT_EQ(metrics.completed(), 20u);
  ASSERT_EQ(engine.dispatch_times.size(), 20u);
  for (std::size_t i = 0; i < 20; ++i) {
    const auto& [id, when] = engine.dispatch_times[i];
    // Single-turn requests dispatch exactly at their arrival.
    EXPECT_EQ(when, sim::Seconds(trace.requests[static_cast<std::size_t>(id)]
                                     .arrival_seconds));
  }
}

TEST(FrontendTest, HoldsNextTurnUntilPredecessorCompletes) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(50));
  workload::Trace trace = TwoTurnTrace();
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  simulator.Run();
  ASSERT_EQ(engine.dispatch_times.size(), 2u);
  EXPECT_EQ(engine.dispatch_times[0].first, 0);
  EXPECT_EQ(engine.dispatch_times[1].first, 1);
  // Turn 1 arrived at 1 ms but waits for turn 0's completion at 50 ms.
  EXPECT_EQ(engine.dispatch_times[1].second, sim::Milliseconds(50));
  EXPECT_TRUE(frontend.AllCompleted());
}

TEST(FrontendTest, MultiTurnTraceNeverReordersWithinSession) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(20));
  workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kConversation, 300, 20.0, 5);
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  simulator.Run();
  EXPECT_TRUE(frontend.AllCompleted());
  // Per session, dispatch order must follow session_seq.
  std::map<std::int64_t, int> last_seq;
  for (const auto& [id, when] : engine.dispatch_times) {
    const workload::RequestSpec& spec =
        trace.requests[static_cast<std::size_t>(id)];
    auto it = last_seq.find(spec.session);
    if (it != last_seq.end()) {
      EXPECT_EQ(spec.session_seq, it->second + 1);
    } else {
      EXPECT_EQ(spec.session_seq, 0);
    }
    last_seq[spec.session] = spec.session_seq;
  }
}

TEST(FrontendTest, TracksCompletionCountsAndLastCompletion) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(10));
  workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kShareGpt, 5, 50.0, 9);
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  EXPECT_EQ(frontend.completed(), 0u);
  simulator.Run();
  EXPECT_EQ(frontend.dispatched(), 5u);
  EXPECT_EQ(frontend.completed(), 5u);
  EXPECT_GT(frontend.last_completion(), 0);
  EXPECT_EQ(frontend.last_completion(), simulator.Now());
}

TEST(FrontendTest, StartLeavesOnlyTheFirstArrivalPending) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(10));
  const workload::Trace trace = workload::GenerateTrace(
      workload::Dataset::kShareGpt, 30, 5.0, 11);
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  EXPECT_EQ(simulator.PendingEvents(), 1u);
  EXPECT_EQ(frontend.arrived(), 0u);
  simulator.Run();
  EXPECT_EQ(frontend.arrived(), 30u);
  EXPECT_TRUE(frontend.AllCompleted());
}

/** Single-turn requests, id 100 + index, arriving at `arrivals` seconds. */
workload::Trace SingleTurnTrace(const std::vector<double>& arrivals) {
  workload::Trace trace;
  trace.name = "unsorted";
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    workload::RequestSpec spec;
    spec.id = 100 + static_cast<std::int64_t>(i);
    spec.arrival_seconds = arrivals[i];
    spec.session = spec.id;
    spec.prompt = {{spec.id, 0, 100}};
    spec.full_seq = {{spec.id, 0, 110}};
    spec.input_tokens = 100;
    spec.output_tokens = 10;
    trace.requests.push_back(spec);
  }
  return trace;
}

TEST(FrontendTest, UnsortedTraceDispatchesInArrivalThenIndexOrder) {
  sim::Simulator simulator;
  FakeEngine engine(&simulator, sim::Milliseconds(10));
  const workload::Trace trace = SingleTurnTrace({0.3, 0.1, 0.3, 0.0, 0.1});
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  simulator.Run();
  EXPECT_TRUE(frontend.AllCompleted());
  const std::vector<std::pair<std::int64_t, sim::Time>> expected = {
      {103, 0},
      {101, sim::Seconds(0.1)},
      {104, sim::Seconds(0.1)},
      {100, sim::Seconds(0.3)},
      {102, sim::Seconds(0.3)}};
  EXPECT_EQ(engine.dispatch_times, expected);
}

TEST(FrontendTest, ArrivalsBeforeStartClampToNowInIndexOrder) {
  sim::Simulator simulator;
  simulator.RunUntil(sim::Milliseconds(200));
  FakeEngine engine(&simulator, sim::Milliseconds(10));
  const workload::Trace trace = SingleTurnTrace({0.3, 0.1, 0.25, 0.0});
  MetricsCollector metrics;
  Frontend frontend(&simulator, &engine, &trace, &metrics);
  frontend.Start();
  simulator.Run();
  const std::vector<std::pair<std::int64_t, sim::Time>> expected = {
      {101, sim::Milliseconds(200)},
      {103, sim::Milliseconds(200)},
      {102, sim::Seconds(0.25)},
      {100, sim::Seconds(0.3)}};
  EXPECT_EQ(engine.dispatch_times, expected);
}

}  // namespace
}  // namespace muxwise::serve
