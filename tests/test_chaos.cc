#include <gtest/gtest.h>

#include <cctype>
#include <string>

#include "fault/fault_plan.h"
#include "frozen_digests.h"
#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "sim/time.h"
#include "workload/datasets.h"
#include "workload/slo.h"

namespace muxwise::harness {
namespace {

/**
 * The acceptance chaos scenario (ISSUE 2): an instance crash at t=30 s
 * recovering at t=45 s, a 1% transfer-loss window across the run, and
 * one straggler window — against every engine in the repository. Every
 * engine must terminate with every request terminally accounted, zero
 * invariant violations (RunWorkload aborts on any), and bit-identical
 * reruns.
 */
serve::Deployment Llama70bA100() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

fault::FaultPlan ChaosPlan() {
  fault::FaultPlan plan;
  plan.Crash(0, sim::Seconds(30), sim::Seconds(45))
      .DropTransfers(sim::Seconds(10), sim::Seconds(70), 0.01)
      .Straggle(1, sim::Seconds(50), sim::Seconds(60), 2.0);
  return plan;
}

/**
 * The triage plan: a near-zero shed threshold and tight deadlines under
 * a crash storm, so one run drives every engine through each terminal
 * outcome — shed at admission, timed out while queued or during crash
 * triage, failed after the retry budget, and attained.
 */
fault::FaultPlan TriagePlan() {
  fault::FaultPlan plan;
  plan.Crash(0, sim::Seconds(10), sim::Seconds(11))
      .Crash(0, sim::Seconds(12), sim::Seconds(13))
      .Crash(0, sim::Seconds(14), sim::Seconds(15))
      .Crash(0, sim::Seconds(16), sim::Seconds(17))
      .Crash(1, sim::Seconds(18), sim::Seconds(18.5))
      .Crash(1, sim::Seconds(18.6), sim::Seconds(18.8))
      .Crash(1, sim::Seconds(18.9), sim::Seconds(19.1))
      .Crash(1, sim::Seconds(19.2), sim::Seconds(19.4))
      .Crash(0, sim::Seconds(20), sim::Seconds(200));
  return plan;
}

RunConfig FaultScenarioConfig(tests::FaultScenario scenario) {
  RunConfig config;
  if (scenario == tests::FaultScenario::kChaos) {
    config.fault_plan = ChaosPlan();
    return config;
  }
  config.fault_plan = TriagePlan();
  config.recovery.shed_demand_factor = 0.005;
  config.recovery.ttft_deadline_factor = 2.0;
  config.overload.enabled = scenario != tests::FaultScenario::kTriage;
  if (scenario == tests::FaultScenario::kTriageGated) {
    // A slow standard-class bucket gates most arrivals; the ones whose
    // refill wait outlasts their deadline are reaped while gated.
    const auto standard = static_cast<std::size_t>(
        workload::SloClassRank(workload::SloClass::kStandard));
    config.overload.bucket_rate_tokens_per_s[standard] = 30.0;
    config.overload.bucket_capacity_tokens[standard] = 2000.0;
    config.overload.max_admission_delay = sim::Seconds(90);
  }
  return config;
}

class ChaosTest : public ::testing::TestWithParam<EngineKind> {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(Llama70bA100()));
    trace_ = new workload::Trace(
        workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 1.0, 777));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete trace_;
    trace_ = nullptr;
  }
  static core::ContentionEstimator* estimator_;
  static workload::Trace* trace_;
};

core::ContentionEstimator* ChaosTest::estimator_ = nullptr;
workload::Trace* ChaosTest::trace_ = nullptr;

TEST_P(ChaosTest, EveryRequestTerminallyAccountedUnderChaos) {
  RunConfig config;
  config.fault_plan = ChaosPlan();
  const RunOutcome o =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, config);
  // RunWorkload already aborted if any invariant audit failed.
  EXPECT_TRUE(o.diagnostic.empty()) << o.diagnostic;
  EXPECT_EQ(o.completed, o.total);  // Every request notified terminal.
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_GT(o.split.attained, 0u);  // Chaos degrades, not destroys.
}

TEST_P(ChaosTest, ChaosRunsAreBitReproducible) {
  RunConfig config;
  config.fault_plan = ChaosPlan();
  const DeterminismReport report = VerifyDeterminism(
      GetParam(), Llama70bA100(), *trace_, estimator_, config);
  EXPECT_TRUE(report.deterministic) << report.mismatch;
}

TEST_P(ChaosTest, DisabledFaultsLeaveOutcomeIdenticalToBaseline) {
  // A default RunConfig (no plan, recovery disabled) must produce the
  // same digest as one carrying recovery knobs that stay disabled —
  // the fault machinery is inert unless switched on.
  RunConfig baseline;
  RunConfig knobs;
  knobs.recovery.max_crash_retries = 7;
  knobs.recovery.shed_demand_factor = 9.0;
  const RunOutcome a =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, baseline);
  const RunOutcome b =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_, knobs);
  EXPECT_EQ(OutcomeDigest(a), OutcomeDigest(b));
  EXPECT_EQ(a.event_digest, b.event_digest);
  EXPECT_EQ(a.split.timed_out + a.split.shed + a.split.failed, 0u);
}

TEST_P(ChaosTest, TriagePlanReachesEveryTerminalOutcome) {
  const RunOutcome o =
      RunWorkload(GetParam(), Llama70bA100(), *trace_, estimator_,
                  FaultScenarioConfig(tests::FaultScenario::kTriage));
  EXPECT_EQ(o.split.total(), o.total);
  EXPECT_GT(o.split.attained, 0u);
  EXPECT_GT(o.split.timed_out, 0u);
  EXPECT_GT(o.split.shed, 0u);
  EXPECT_GT(o.split.failed, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllEngines, ChaosTest,
    ::testing::Values(EngineKind::kMuxWise, EngineKind::kChunked,
                      EngineKind::kNanoFlow, EngineKind::kSglangPd,
                      EngineKind::kLoongServe, EngineKind::kWindServe,
                      EngineKind::kTemporal),
    [](const ::testing::TestParamInfo<EngineKind>& info) {
      switch (info.param) {
        case EngineKind::kMuxWise:
          return "MuxWise";
        case EngineKind::kChunked:
          return "Chunked";
        case EngineKind::kNanoFlow:
          return "NanoFlow";
        case EngineKind::kSglangPd:
          return "SglangPd";
        case EngineKind::kLoongServe:
          return "LoongServe";
        case EngineKind::kWindServe:
          return "WindServe";
        case EngineKind::kTemporal:
          return "Temporal";
      }
      return "Unknown";
    });

// Every fault path (shed, deadline reaping, crash triage, overload
// admission) is pinned bit-for-bit by tests/frozen_digests.h, so
// restructuring who owns the request ledger cannot move a single event.
class FaultPathDigestTest
    : public ::testing::TestWithParam<tests::FrozenFaultDigest> {
 protected:
  static void SetUpTestSuite() {
    estimator_ = new core::ContentionEstimator(
        core::ContentionEstimator::BuildOffline(tests::FrozenDeployment()));
    trace_ = new workload::Trace(
        workload::GenerateTrace(workload::Dataset::kShareGpt, 80, 1.0, 777));
  }
  static void TearDownTestSuite() {
    delete estimator_;
    estimator_ = nullptr;
    delete trace_;
    trace_ = nullptr;
  }
  static core::ContentionEstimator* estimator_;
  static workload::Trace* trace_;
};

core::ContentionEstimator* FaultPathDigestTest::estimator_ = nullptr;
workload::Trace* FaultPathDigestTest::trace_ = nullptr;

TEST_P(FaultPathDigestTest, MatchesFrozenDigest) {
  const tests::FrozenFaultDigest& expect = GetParam();
  const RunOutcome o =
      RunWorkload(expect.kind, tests::FrozenDeployment(), *trace_,
                  estimator_, FaultScenarioConfig(expect.scenario));
  EXPECT_EQ(o.event_digest, expect.event_digest);
  EXPECT_EQ(o.executed_events, expect.executed_events);
  EXPECT_EQ(OutcomeDigest(o), expect.outcome_digest);
}

INSTANTIATE_TEST_SUITE_P(
    FrozenFaultPaths, FaultPathDigestTest,
    ::testing::ValuesIn(tests::kFrozenFaultDigests),
    [](const ::testing::TestParamInfo<tests::FrozenFaultDigest>& info) {
      std::string name = EngineKindName(info.param.kind);
      std::erase_if(name, [](char c) {
        return !std::isalnum(static_cast<unsigned char>(c));
      });
      switch (info.param.scenario) {
        case tests::FaultScenario::kChaos:
          return name + "_Chaos";
        case tests::FaultScenario::kTriage:
          return name + "_Triage";
        case tests::FaultScenario::kTriageOverload:
          return name + "_TriageOverload";
        case tests::FaultScenario::kTriageGated:
          return name + "_TriageGated";
      }
      return name;
    });

}  // namespace
}  // namespace muxwise::harness
