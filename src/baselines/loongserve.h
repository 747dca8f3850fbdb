#ifndef MUXWISE_BASELINES_LOONGSERVE_H_
#define MUXWISE_BASELINES_LOONGSERVE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "fault/fault_aware.h"
#include "fault/recovery.h"
#include "gpu/cluster.h"
#include "sim/channel.h"
#include "llm/cost_model.h"
#include "serve/deployment.h"
#include "serve/engine.h"
#include "sim/simulator.h"

namespace muxwise::baselines {

/**
 * Dynamic disaggregation in the style of LoongServe (paper §2.3.1):
 * whole GPUs are re-assigned between the prefill and decode phases at
 * runtime via elastic sequence parallelism.
 *
 * Modeled on an aggregate device where a group of k (of n) GPUs is a
 * stream holding k/n of the SMs and bandwidth. The decode group is
 * sized to the smallest GPU count meeting the TBT target; the rest
 * serves prefill. Re-sizing the decode group re-shards its KV, paid as
 * an NVLink transfer that stalls the next decode iteration.
 *
 * The structural cost the paper highlights: to stay elastic, LoongServe
 * releases KV when a request completes, so multi-turn sessions
 * recompute their entire history (no cross-request reuse).
 *
 * Failure recovery (when Options::recovery is enabled): the elastic
 * group is one fault domain — a crash of any member poisons the whole
 * sequence-parallel shard set, so everything admitted is lost and
 * re-enqueued. Re-shard traffic rides the engine's own interconnect,
 * which is the engine's FaultableLink().
 */
class LoongServeEngine : public fault::FaultAwareEngine {
 public:
  struct Options {
    int max_decode_batch = 256;
    /** Minimum GPUs pinned to decode while any request is decoding. */
    int min_decode_gpus = 1;
    /** Max new tokens packed into one prefill batch. */
    std::int64_t prefill_batch_tokens = 16384;
    int prefill_batch_requests = 8;

    /** Failure recovery; disabled by default (fault-free runs). */
    fault::RecoveryPolicy recovery;
  };

  LoongServeEngine(sim::Simulator* simulator,
                   const serve::Deployment& deployment, Options options);
  ~LoongServeEngine() override;

  const char* name() const override { return "LoongServe"; }
  void Enqueue(std::unique_ptr<serve::Request> request) override;
  void RegisterAudits(check::InvariantRegistry& registry) const override;

  void InjectCrash(std::size_t domain) override;
  void InjectRecovery(std::size_t domain) override;
  void InjectStraggler(std::size_t domain, double slowdown) override;
  sim::Channel* FaultableLink() override { return link_.get(); }

  /**
   * Forwards the tracer to the aggregate device ("gpu/"); prefill
   * batches and decode iterations become engine spans, KV usage a "kv"
   * counter, and elastic re-shards "reshard" instants on "partition".
   */
  void AttachTracer(obs::Tracer tracer) override;

  gpu::Gpu& device() { return *device_; }
  int decode_gpus() const { return decode_gpus_; }

 private:
  void PumpPrefill();

  /** Deadline hook: only waiting requests are reaped. */
  std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id) override {
    return TakeQueued(waiting_, id);
  }
  void OnPrefillBatchDone();
  void MaybeStartDecodeIteration();
  void OnDecodeIterationDone();

  /** Smallest decode GPU count meeting the TBT target for `ctx`. */
  int ChooseDecodeGpus(const std::vector<std::int64_t>& ctx) const;

  /** Builds a group-total kernel for a k-GPU group. */
  gpu::Kernel GroupKernel(const gpu::Kernel& per_gpu, int k) const;

  sim::Simulator* sim_;
  serve::Deployment deployment_;
  Options options_;

  std::unique_ptr<gpu::Gpu> device_;  // Aggregate of num_gpus GPUs.
  std::unique_ptr<gpu::HostThread> host_;
  std::unique_ptr<sim::Channel> link_;
  std::vector<std::unique_ptr<llm::CostModel>> cost_by_tp_;  // [1..n].

  gpu::StreamId prefill_stream_ = 0;
  gpu::StreamId decode_stream_ = 0;

  // Simple token-count pool: no radix tree, no cross-request reuse.
  std::int64_t pool_capacity_ = 0;
  std::int64_t pool_used_ = 0;

  std::deque<std::unique_ptr<serve::Request>> waiting_;
  std::vector<std::unique_ptr<serve::Request>> prefill_batch_;
  std::vector<std::unique_ptr<serve::Request>> decoding_;

  bool prefill_in_flight_ = false;
  bool decode_in_flight_ = false;
  bool resharding_ = false;
  int decode_gpus_ = 1;
  std::uint64_t prefill_batch_serial_ = 0;
  std::uint64_t decode_step_serial_ = 0;
  std::uint64_t reshard_serial_ = 0;
};

}  // namespace muxwise::baselines

#endif  // MUXWISE_BASELINES_LOONGSERVE_H_
