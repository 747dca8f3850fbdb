#ifndef MUXWISE_TESTS_FROZEN_DIGESTS_H_
#define MUXWISE_TESTS_FROZEN_DIGESTS_H_

#include <cstdint>

#include "gpu/gpu_spec.h"
#include "harness/runner.h"
#include "llm/model_config.h"
#include "serve/deployment.h"
#include "workload/datasets.h"

namespace muxwise::tests {

/**
 * The seven-engine acceptance scenario's frozen digests — recorded from
 * the seed BEFORE the channel refactor (PR 6) and re-enforced by every
 * structural change since (gated by test_channel.cc).
 */
struct FrozenDigest {
  harness::EngineKind kind;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

inline constexpr FrozenDigest kFrozenEngineDigests[] = {
    {harness::EngineKind::kMuxWise, 0xb8dab88ef03c0e36ull, 5768,
     0x64057339ff7e20ffull},
    {harness::EngineKind::kChunked, 0x600f439cd0e9b2a9ull, 5166,
     0xa79db285eba1ac92ull},
    {harness::EngineKind::kNanoFlow, 0x98d55bf27e747a59ull, 8710,
     0xc54972f3fb74e7bfull},
    {harness::EngineKind::kSglangPd, 0x7b797a7451b6eb90ull, 5014,
     0x50f684df4c6170f4ull},
    {harness::EngineKind::kLoongServe, 0x7c3cf241ee03682dull, 3912,
     0x6288a403b4628e89ull},
    {harness::EngineKind::kWindServe, 0x4af18835f365b17eull, 6196,
     0xec28858423c39dc5ull},
    {harness::EngineKind::kTemporal, 0x0cddefd2e724a299ull, 6260,
     0x7cd1c27674bb5f39ull},
};

/**
 * The fault scenarios whose paths are frozen below. Each runs the
 * ChaosTest trace (80 ShareGPT requests at 1 req/s, seed 777) on
 * FrozenDeployment; tests/test_chaos.cc builds the plans.
 *
 *  - kChaos: ChaosTest's acceptance plan (one crash, transfer loss, a
 *    straggler window).
 *  - kTriage: shed_demand_factor 0.005 and ttft_deadline_factor 2.0
 *    under a crash storm (instance 0 at 10-11, 12-13, 14-15, 16-17 s;
 *    instance 1 at 18-18.5, 18.6-18.8, 18.9-19.1, 19.2-19.4 s;
 *    instance 0 again from 20 s to 200 s), so every engine sheds, times
 *    out, exhausts retry budgets and still attains some requests.
 *  - kTriageOverload: kTriage with overload control on (MuxWise family
 *    only), covering overload admission. Its default policy leaves the
 *    class buckets off, so nothing is gated.
 *  - kTriageGated: kTriageOverload with a slow standard-class bucket,
 *    covering gated arrivals: re-gated, admitted or shed on a retry,
 *    and reaped by their deadline while gated.
 */
enum class FaultScenario { kChaos, kTriage, kTriageOverload, kTriageGated };

struct FrozenFaultDigest {
  harness::EngineKind kind;
  FaultScenario scenario;
  std::uint64_t event_digest;
  std::size_t executed_events;
  std::uint64_t outcome_digest;
};

/**
 * Fault-path digests, recorded before the request ledger moved into
 * fault::FaultAwareEngine: admission, deadline reaping and crash
 * triage must keep every fault path bit-identical.
 */
inline constexpr FrozenFaultDigest kFrozenFaultDigests[] = {
    {harness::EngineKind::kMuxWise, FaultScenario::kChaos,
     0x704b4bcc8b4550faull, 10101, 0xd77bdd4471608191ull},
    {harness::EngineKind::kChunked, FaultScenario::kChaos,
     0x2ceb014f9edb5e20ull, 8347, 0xb9f040d5b1aa11a8ull},
    {harness::EngineKind::kNanoFlow, FaultScenario::kChaos,
     0x3c27393dd8e0c4e3ull, 10702, 0xfcc81b4d97724addull},
    {harness::EngineKind::kSglangPd, FaultScenario::kChaos,
     0xc58259d83774eb77ull, 8188, 0xbe428b96e71cdab5ull},
    {harness::EngineKind::kLoongServe, FaultScenario::kChaos,
     0x56c7b52fdb3ec211ull, 3645, 0xf9e7eac765350fccull},
    {harness::EngineKind::kWindServe, FaultScenario::kChaos,
     0xcd8596d18bef47f6ull, 10927, 0xd72fbcb687fd2be1ull},
    {harness::EngineKind::kTemporal, FaultScenario::kChaos,
     0xca2527e3abf3a68eull, 11243, 0xe127291786a4bb2bull},
    {harness::EngineKind::kMuxWise, FaultScenario::kTriage,
     0xe997b11bfdaffaddull, 4211, 0x75643c3c99ea5229ull},
    {harness::EngineKind::kChunked, FaultScenario::kTriage,
     0x3883f2ed6296b852ull, 3566, 0x8d8ed1e4d90388afull},
    {harness::EngineKind::kNanoFlow, FaultScenario::kTriage,
     0x1e6919cd39154083ull, 5913, 0x5e22238318913550ull},
    {harness::EngineKind::kSglangPd, FaultScenario::kTriage,
     0xaf79ba62d080b394ull, 4343, 0x513a59bb2b71000eull},
    {harness::EngineKind::kLoongServe, FaultScenario::kTriage,
     0x6cc3f5c128b299fdull, 2520, 0xee17cd4b9b842c31ull},
    {harness::EngineKind::kWindServe, FaultScenario::kTriage,
     0xd6e1f85cfcec309dull, 4347, 0x4d4fedcedcbe9b99ull},
    {harness::EngineKind::kTemporal, FaultScenario::kTriage,
     0x8df0f9f187fb6e33ull, 4177, 0x5d341dfde0c78003ull},
    {harness::EngineKind::kMuxWise, FaultScenario::kTriageOverload,
     0x87bcca079f597ab9ull, 4224, 0x0ba755b7cc4a7581ull},
    {harness::EngineKind::kWindServe, FaultScenario::kTriageOverload,
     0x70dc639598da5e99ull, 4376, 0x9de8b5058ab4e314ull},
    {harness::EngineKind::kTemporal, FaultScenario::kTriageOverload,
     0xc46b0069fbd1f408ull, 4202, 0xa2867d6cbef74a68ull},
    {harness::EngineKind::kMuxWise, FaultScenario::kTriageGated,
     0x7ffaa36607179735ull, 2428, 0x325952c32f747547ull},
    {harness::EngineKind::kWindServe, FaultScenario::kTriageGated,
     0x58ccf594b68c880full, 2494, 0x67bd26659561424cull},
    {harness::EngineKind::kTemporal, FaultScenario::kTriageGated,
     0xc007ba313bc70bf5ull, 2404, 0x46d9b5cc980aa80full},
};

/** The deployment the frozen digests were recorded against. */
inline serve::Deployment FrozenDeployment() {
  return serve::Deployment::Make(llm::ModelConfig::Llama70B(),
                                 gpu::GpuSpec::A100());
}

/** The trace the frozen digests were recorded against. */
inline workload::Trace FrozenTrace() {
  return workload::GenerateTrace(workload::Dataset::kShareGpt, 30, 2.0, 901);
}

}  // namespace muxwise::tests

#endif  // MUXWISE_TESTS_FROZEN_DIGESTS_H_
