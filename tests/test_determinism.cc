#include "harness/runner.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/simulator.h"
#include "workload/datasets.h"

namespace muxwise::harness {
namespace {

serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/**
 * Back-to-back determinism for every integration scenario (one per
 * serving engine): the reproducibility claim in src/sim/simulator.h,
 * enforced in ctest via the harness's event-stream digest.
 */
class DeterminismTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
  }
  static core::ContentionEstimator* estimator_;
};

core::ContentionEstimator* DeterminismTest::estimator_ = nullptr;

TEST_P(DeterminismTest, BackToBackRunsProduceIdenticalEventStreams) {
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
  const DeterminismReport report = VerifyDeterminism(
      GetParam(), Llama70bA100(), trace, estimator_);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
  EXPECT_EQ(report.first_digest, report.second_digest);
  EXPECT_EQ(report.first_events, report.second_events);
  EXPECT_GT(report.first_events, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, DeterminismTest,
    ::testing::Values(EngineKind::kMuxWise, EngineKind::kChunked,
                      EngineKind::kNanoFlow, EngineKind::kSglangPd,
                      EngineKind::kLoongServe, EngineKind::kWindServe,
                      EngineKind::kTemporal),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kMuxWise: return "MuxWise";
        case EngineKind::kChunked: return "Chunked";
        case EngineKind::kNanoFlow: return "NanoFlow";
        case EngineKind::kSglangPd: return "SglangPd";
        case EngineKind::kLoongServe: return "LoongServe";
        case EngineKind::kWindServe: return "WindServe";
        case EngineKind::kTemporal: return "Temporal";
      }
      return "Unknown";
    });

TEST(EventDigestTest, IdenticalSchedulesAgree) {
  auto run = [] {
    sim::Simulator simulator;
    simulator.ScheduleAt(10, [] {});
    simulator.ScheduleAt(20, [] {});
    simulator.ScheduleAt(20, [] {});  // Same-time tie broken by id.
    simulator.Run();
    return simulator.EventDigest();
  };
  EXPECT_EQ(run(), run());
}

TEST(EventDigestTest, DetectsPerturbedEventTime) {
  auto run = [](sim::Time third) {
    sim::Simulator simulator;
    simulator.ScheduleAt(10, [] {});
    simulator.ScheduleAt(20, [] {});
    simulator.ScheduleAt(third, [] {});
    simulator.Run();
    return simulator.EventDigest();
  };
  EXPECT_NE(run(30), run(31));  // A 1 ns shift perturbs the digest.
}

TEST(EventDigestTest, DetectsInjectedEvent) {
  auto run = [](bool extra) {
    sim::Simulator simulator;
    simulator.ScheduleAt(10, [] {});
    simulator.ScheduleAt(20, [] {});
    if (extra) simulator.ScheduleAt(15, [] {});
    simulator.Run();
    return simulator.EventDigest();
  };
  EXPECT_NE(run(false), run(true));
}

TEST(EventDigestTest, DetectsReorderedSameTimeEvents) {
  // Two same-time events whose callbacks each schedule a follow-up.
  // Swapping their scheduling order swaps which callback owns which
  // event id, so the follow-ups' (time, id) pairs cross — the cascade
  // any real scheduling nondeterminism produces, and what the digest
  // must observe.
  auto run = [](bool swapped) {
    sim::Simulator simulator;
    auto a = [&simulator] { simulator.ScheduleAfter(5, [] {}); };
    auto b = [&simulator] { simulator.ScheduleAfter(7, [] {}); };
    if (swapped) {
      simulator.ScheduleAt(10, b);
      simulator.ScheduleAt(10, a);
    } else {
      simulator.ScheduleAt(10, a);
      simulator.ScheduleAt(10, b);
    }
    simulator.Run();
    return simulator.EventDigest();
  };
  EXPECT_NE(run(false), run(true));
}

TEST(DeterminismVerifierTest, DetectsPerturbedScenario) {
  // A deliberately perturbed trace (one arrival nudged by 1 ms) must
  // produce a different event stream than the original — the digest is
  // sensitive enough to catch single-event drift at harness level.
  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);

  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 20, 2.0, 902);
  workload::Trace perturbed = trace;
  perturbed.requests[10].arrival_seconds += 0.001;

  const RunOutcome a =
      RunWorkload(EngineKind::kChunked, deployment, trace, &estimator);
  const RunOutcome b =
      RunWorkload(EngineKind::kChunked, deployment, perturbed, &estimator);
  EXPECT_NE(a.event_digest, b.event_digest);
  EXPECT_NE(OutcomeDigest(a), OutcomeDigest(b));
}

TEST(DeterminismVerifierTest, OutOfOrderTraceDigestsAreFrozen) {
  // Generated traces are sorted by arrival, so only hand-built ones
  // reach the frontend's ordering of unsorted arrivals. The perturbed
  // trace above stays sorted (its 1 ms nudge passes no neighbour); the
  // same trace with its earliest request moved to the back does not.
  // Both digests were recorded while the frontend still scheduled every
  // arrival up front.
  const serve::Deployment deployment = Llama70bA100();
  const core::ContentionEstimator estimator =
      core::ContentionEstimator::BuildOffline(deployment);
  const workload::Trace trace =
      workload::GenerateTrace(workload::Dataset::kShareGpt, 20, 2.0, 902);

  workload::Trace perturbed = trace;
  perturbed.requests[10].arrival_seconds += 0.001;
  workload::Trace rotated = trace;
  std::rotate(rotated.requests.begin(), rotated.requests.begin() + 1,
              rotated.requests.end());
  const auto by_arrival = [](const workload::RequestSpec& a,
                             const workload::RequestSpec& b) {
    return a.arrival_seconds < b.arrival_seconds;
  };
  ASSERT_FALSE(std::is_sorted(rotated.requests.begin(),
                              rotated.requests.end(), by_arrival));

  const RunOutcome a =
      RunWorkload(EngineKind::kChunked, deployment, perturbed, &estimator);
  EXPECT_EQ(a.event_digest, 0x1c736bb10934b103ull);
  EXPECT_EQ(OutcomeDigest(a), 0xe78fdd283960f2cfull);
  const RunOutcome b =
      RunWorkload(EngineKind::kMuxWise, deployment, rotated, &estimator);
  EXPECT_TRUE(b.stable);
  EXPECT_EQ(b.event_digest, 0xcbea526b6725cc07ull);
  EXPECT_EQ(OutcomeDigest(b), 0xc7919f9aeb10b585ull);
}

}  // namespace
}  // namespace muxwise::harness
