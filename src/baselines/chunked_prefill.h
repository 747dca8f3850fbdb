#ifndef MUXWISE_BASELINES_CHUNKED_PREFILL_H_
#define MUXWISE_BASELINES_CHUNKED_PREFILL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fault/fault_aware.h"
#include "fault/recovery.h"
#include "gpu/cluster.h"
#include "kv/kv_pool.h"
#include "llm/cost_model.h"
#include "serve/deployment.h"
#include "serve/engine.h"
#include "sim/simulator.h"

namespace muxwise::baselines {

/**
 * SARATHI-style chunked prefill on an aggregated instance (paper §2.3.2):
 * prefill is split into chunks capped by a token budget and fused with
 * the running decode batch, one iteration at a time, on the full device.
 *
 * With `Options::nano_overlap` the engine becomes the NanoFlow baseline:
 * every fused iteration is split into nano-batches executed on two
 * concurrent streams, improving intra-iteration compute/memory overlap
 * at the price of duplicated weight streaming per nano-batch and
 * unmanaged contention between the streams (paper §4.2.1).
 *
 * Failure recovery (when Options::recovery is enabled): the single
 * instance is fault domain 0. A crash aborts the in-flight iteration,
 * drops the KV pool, and re-enqueues every admitted request at the head
 * of the waiting queue for recomputation; admission sheds new work when
 * queued demand exceeds the policy factor of pool capacity; waiting
 * requests whose SLO-derived deadline passes are abandoned.
 */
class ChunkedPrefillEngine : public fault::FaultAwareEngine {
 public:
  struct Options {
    /** SARATHI token budget: chunk tokens + decode batch size. */
    int token_budget = 256;

    /** Cap on the decode batch size. */
    int max_decode_batch = 256;

    /** NanoFlow mode. */
    bool nano_overlap = false;
    int nano_batches = 2;

    /** Failure recovery; disabled by default (fault-free runs). */
    fault::RecoveryPolicy recovery;
  };

  ChunkedPrefillEngine(sim::Simulator* simulator,
                       const serve::Deployment& deployment, Options options);
  ~ChunkedPrefillEngine() override;

  const char* name() const override {
    return options_.nano_overlap ? "NanoFlow" : "Chunked";
  }
  void Enqueue(std::unique_ptr<serve::Request> request) override;
  void RegisterAudits(check::InvariantRegistry& registry) const override;

  void InjectCrash(std::size_t domain) override;
  void InjectRecovery(std::size_t domain) override;
  void InjectStraggler(std::size_t domain, double slowdown) override;

  /**
   * Forwards the tracer to the device ("gpu/") and pool ("kv"); fused
   * iterations become "iteration" spans on "engine/iteration".
   */
  void AttachTracer(obs::Tracer tracer) override;

  /**
   * Offline token-budget tuning following SARATHI-Serve: the largest
   * budget whose fused iteration (with a representative decode batch of
   * `decode_batch` sequences at `decode_context` tokens and the chunk
   * attending `chunk_context` cached tokens) still meets `tbt_target`.
   */
  static int TuneTokenBudget(const serve::Deployment& deployment,
                             sim::Duration tbt_target, int decode_batch = 32,
                             std::int64_t decode_context = 1024,
                             std::int64_t chunk_context = 1024);

  const kv::KvPool& pool() const { return *pool_; }
  gpu::Gpu& device() { return *device_; }

  /** Completed fused iterations (diagnostics). */
  std::size_t iterations() const { return iterations_; }

 private:
  void PumpAdmissions();
  void MaybeStartIteration();
  void OnIterationDone();

  /** Deadline hook: only waiting requests are reaped. */
  std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id) override {
    return TakeQueued(waiting_, id);
  }

  sim::Simulator* sim_;
  serve::Deployment deployment_;
  Options options_;

  std::unique_ptr<gpu::Gpu> device_;
  std::unique_ptr<gpu::HostThread> host_;
  std::unique_ptr<kv::KvPool> pool_;
  std::unique_ptr<llm::CostModel> cost_;

  gpu::StreamId stream_ = 0;
  gpu::StreamId nano_stream_ = 0;  // Second stream for NanoFlow overlap.

  std::deque<std::unique_ptr<serve::Request>> waiting_;
  std::deque<std::unique_ptr<serve::Request>> prefilling_;
  std::vector<std::unique_ptr<serve::Request>> decoding_;

  bool iteration_in_flight_ = false;
  int nano_outstanding_ = 0;
  std::size_t iterations_ = 0;

  // Chunks included in the in-flight iteration: (request, chunk tokens).
  std::vector<std::pair<serve::Request*, std::int64_t>> inflight_chunks_;
};

}  // namespace muxwise::baselines

#endif  // MUXWISE_BASELINES_CHUNKED_PREFILL_H_
