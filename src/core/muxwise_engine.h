#ifndef MUXWISE_CORE_MUXWISE_ENGINE_H_
#define MUXWISE_CORE_MUXWISE_ENGINE_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "core/dispatcher.h"
#include "fault/fault_aware.h"
#include "fault/recovery.h"
#include "core/estimator.h"
#include "core/multiplex_engine.h"
#include "gpu/cluster.h"
#include "sim/channel.h"
#include "kv/kv_pool.h"
#include "llm/cost_model.h"
#include "overload/controller.h"
#include "serve/deployment.h"
#include "serve/engine.h"
#include "sim/simulator.h"

namespace muxwise::core {

/**
 * MuxWise: LLM serving with intra-GPU prefill-decode multiplexing
 * (paper §3). Decode iterations run continuously on a best-fit SM
 * reservation sized by the contention-tolerant estimator; prefill
 * executes layer-wise on the remaining SMs, merging into the decode
 * batch through query-based synchronization, with optional preemption
 * of long prefills by short ones.
 *
 * Ablation flags reproduce the paper's studies: `layerwise` off
 * launches whole prefill phases (Fig. 19 variant 1), `query_sync` off
 * blocks decode on prefill completion for merging (Fig. 19 variant 2),
 * `dispatch.preemption` off disables preemptive scheduling (Fig. 20),
 * and MultiplexEngine modes give the WindServe / temporal-only
 * prototypes of §6.
 *
 * Failure recovery (when Options::recovery is enabled): the multiplexed
 * instance is fault domain 0. A crash aborts both green contexts
 * (MultiplexEngine::Abort), drops the KV pool, and re-enqueues every
 * admitted request — including partially prefilled and preempted
 * batches — for recomputation; new work is shed under overload, and
 * waiting requests whose SLO-derived deadline passes are abandoned.
 */
class MuxWiseEngine : public fault::FaultAwareEngine {
 public:
  struct Options {
    MultiplexEngine::Options mux;
    SloAwareDispatcher::Options dispatch;

    /** Layer-wise prefill execution (paper §3.2.3). */
    bool layerwise = true;

    /** Query-based synchronization for batch merging (paper §3.2.3). */
    bool query_sync = true;

    /** Online refinement of the contention guard (paper §3.1). */
    bool online_refinement = true;

    int max_decode_batch = 256;
    std::int64_t prefill_batch_tokens = 16384;
    int prefill_batch_requests = 8;

    /** Failure recovery; disabled by default (fault-free runs). */
    fault::RecoveryPolicy recovery;

    /**
     * Overload control (SLO-class admission, brownout modes, KV-spill
     * preemption); disabled by default so event streams stay
     * bit-identical to builds without the subsystem.
     */
    overload::Policy overload;
  };

  /**
   * `estimator` is the offline-profiled estimator for this deployment
   * (ContentionEstimator::BuildOffline); the engine takes its own copy
   * so online refinement stays per-instance.
   */
  MuxWiseEngine(sim::Simulator* simulator,
                const serve::Deployment& deployment,
                ContentionEstimator estimator, Options options);
  ~MuxWiseEngine() override;

  const char* name() const override;
  void Enqueue(std::unique_ptr<serve::Request> request) override;
  void RegisterAudits(check::InvariantRegistry& registry) const override;

  void InjectCrash(std::size_t domain) override;
  void InjectRecovery(std::size_t domain) override;
  void InjectStraggler(std::size_t domain, double slowdown) override;
  void InjectZombie(std::size_t domain, bool frozen) override;
  void InjectDegrade(std::size_t domain, double flops_factor,
                     double bandwidth_factor) override;

  /** Device kernel completions — the zombie detector's watermark. */
  std::uint64_t ProgressWatermark() const override;

  /**
   * Forwards the tracer to the multiplex substrate (gpu + partition
   * tracks) and the KV pool ("kv" track); prefill layer groups and
   * decode iterations become "prefill-chunk" / "decode-step" spans on
   * the engine tracks.
   */
  void AttachTracer(obs::Tracer tracer) override;

  MultiplexEngine& mux() { return *mux_; }
  const ContentionEstimator& estimator() const { return estimator_; }
  const kv::KvPool& pool() const { return *pool_; }

  /** Completed decode iterations (diagnostics). */
  std::size_t decode_iterations() const { return decode_iterations_; }

  /** Prefill batches that were preempted. */
  std::size_t preemptions() const { return preemptions_; }

  /** Overload controller (inert when Options::overload.enabled is off). */
  const overload::Controller& overload_controller() const { return *ctl_; }

  /** KV-pressure preemptions that spilled the victim to host memory. */
  std::size_t kv_spills() const { return kv_spills_; }

  /** KV-pressure preemptions that dropped + recomputed the victim. */
  std::size_t kv_recomputes() const { return kv_recomputes_; }

  /** Spilled requests restored to HBM and resumed. */
  std::size_t kv_restores() const { return kv_restores_; }

  // --- Fleet-router surface (src/route/) ----------------------------

  /**
   * Drains every request that has not started compute — the waiting
   * queue (FIFO order) plus admission-gated arrivals — handing
   * ownership to the fleet router for re-homing once this replica is
   * declared down. In-flight and queued-demand accounting is settled
   * here; the extracted requests' pending deadline/retry events become
   * no-ops (they look the requests up by id and find nothing).
   * Single-replica runs never call this, so their event streams are
   * bit-identical to builds without a router.
   */
  std::vector<std::unique_ptr<serve::Request>> ExtractForRehoming();

  /**
   * Lands a migrated KV prefix in this replica's cache: the pages are
   * committed unpinned (evictable), so the next admission of the
   * re-homed request matches them instead of recomputing. The wire
   * time was already paid on the router's fleet link.
   */
  void WarmCachePrefix(const kv::TokenSeq& prefix);

  /** Samples of (time, decode_sms) at each partition decision (Fig. 18). */
  struct PartitionSample {
    sim::Time time;
    int decode_sms;
    int prefill_sms;
    bool prefill_active;
  };
  const std::vector<PartitionSample>& partition_trace() const {
    return partition_trace_;
  }

  /**
   * Bounds the partition trace to the first `capacity` samples (0 keeps
   * it unbounded, the default). Million-request streaming runs record
   * one sample per scheduling decision, so an unbounded trace would
   * grow without limit; the cap keeps the earliest samples (enough for
   * Fig. 18-style plots) and counts the rest as dropped.
   */
  void set_partition_trace_capacity(std::size_t capacity) {
    partition_trace_capacity_ = capacity;
  }
  std::size_t partition_samples_dropped() const {
    return partition_samples_dropped_;
  }

 private:
  struct PrefillJob {
    std::vector<std::unique_ptr<serve::Request>> requests;
    std::vector<llm::SeqWork> work;
    std::int64_t new_tokens = 0;
    std::int64_t reused_tokens = 0;
    int layers_done = 0;
    int layers_inflight = 0;
    bool is_preemptor = false;
    bool pause_requested = false;
    sim::Time earliest_deadline = sim::kTimeNever;
  };

  void PumpScheduler();
  void FlushCompletions();
  void TryStartPrefillBatch();
  void ContinuePrefill();
  void OnPrefillGroupDone(int layers);
  void CompleteActivePrefill();
  void MaybeLaunchDecode();
  void OnDecodeIterationDone(sim::Time launch_time, sim::Duration solo,
                             ContentionEstimator::CellKey cell,
                             bool had_cotenant);
  void FinishRequest(std::unique_ptr<serve::Request> request);
  void MaybePreemptFor(const serve::Request& incoming);

  /** Deadline hook: reaps request `id` if it is waiting or gated. */
  std::unique_ptr<serve::Request> TakeUnstarted(std::int64_t id) override;

  // --- Overload control (all paths gated on options_.overload.enabled,
  // so disabled runs execute the exact legacy instruction stream) -----
  bool OverloadOn() const { return options_.overload.enabled; }

  /** Overload-aware admission front half of Enqueue. */
  void EnqueueOverload(std::unique_ptr<serve::Request> request);

  /** Tail shared by both admission paths: queue + pump. */
  void AdmitToWaiting(std::unique_ptr<serve::Request> request);

  /** Re-offers a bucket-delayed request to the controller. */
  void OnAdmissionRetry(std::int64_t id);

  /** Feeds KV occupancy + queue delay into the brownout ladder. */
  void ObserveOverload();

  /** Waiting + gated requests of `slo_class` (hard-bound input). */
  std::size_t QueuedInClass(workload::SloClass slo_class) const;

  /**
   * Decode-safe KV preemption: evicts the best victim (lowest class,
   * least progress, cheapest recompute) from the paused prefill batch
   * so `head` can be admitted. Victims spill their KV over the host
   * link when that is cheaper than recomputing, else requeue for
   * recomputation. Returns true when a victim was evicted.
   */
  bool TryPreemptForKv(const serve::Request& head);

  /**
   * KV-pressure pause: when the best-class waiting head cannot fit in
   * the pool while the active prefill batch carries strictly
   * lower-class work, requests a pause at the next layer-group
   * boundary so TryPreemptForKv can harvest victims from it.
   */
  void MaybeKvPreempt();

  /** Outbound spill transfer landed for request `id`. */
  void OnSpillOutDone(std::int64_t id);

  /** Starts at most one inbound restore transfer when eligible. */
  void MaybeRestoreSpilled();

  /** Inbound restore transfer landed for request `id`. */
  void OnRestoreDone(std::int64_t id);

  /** Prefill work remaining in the active job, as an estimator input. */
  PrefillDesc ActivePrefillDesc() const;
  sim::Duration ActivePrefillRemaining() const;

  sim::Simulator* sim_;
  serve::Deployment deployment_;
  Options options_;

  std::unique_ptr<MultiplexEngine> mux_;
  std::unique_ptr<kv::KvPool> pool_;
  std::unique_ptr<llm::CostModel> cost_;
  ContentionEstimator estimator_;
  std::unique_ptr<SloAwareDispatcher> dispatcher_;

  std::deque<std::unique_ptr<serve::Request>> waiting_;
  std::unique_ptr<PrefillJob> active_;
  std::unique_ptr<PrefillJob> preempted_;

  // --- Overload-control state (all empty / inert when disabled) ------
  std::unique_ptr<overload::Controller> ctl_;
  std::unique_ptr<sim::Channel> host_link_;

  /** Admission-delayed requests awaiting a bucket/deferral retry. */
  std::vector<std::unique_ptr<serve::Request>> gated_;

  /** A prefill-phase victim whose KV lives (or is moving) off-HBM. */
  struct SpilledEntry {
    std::unique_ptr<serve::Request> request;
    std::int64_t tokens = 0;  // Share of the pool's spill ledger.
    int layers_done = 0;
    double bytes = 0.0;
    bool out_done = false;   // Outbound transfer landed.
    bool restoring = false;  // Inbound transfer in flight.
  };
  std::vector<SpilledEntry> spilled_;

  /** Single-request resume jobs built by completed restores. */
  std::deque<std::unique_ptr<PrefillJob>> restored_;
  bool restore_in_flight_ = false;

  std::size_t kv_spills_ = 0;
  std::size_t kv_recomputes_ = 0;
  std::size_t kv_restores_ = 0;
  std::size_t decode_victims_ = 0;  // Must stay 0: decode-safe audit.
  std::size_t queued_hwm_ = 0;      // waiting_ + gated_ high-water mark.
  std::vector<std::unique_ptr<serve::Request>> merge_ready_;
  std::vector<std::unique_ptr<serve::Request>> decoding_;

  // Finished requests awaiting notification: completions are handed
  // back only once engine state is consistent, because NotifyComplete
  // can synchronously re-enter Enqueue with the session's next turn.
  std::vector<std::unique_ptr<serve::Request>> pending_completions_;

  bool decode_in_flight_ = false;
  bool decode_blocked_on_merge_ = false;
  // Set when an approved preemption awaits its preemptor batch; the
  // paused batch resumes only after that batch (and only it) runs.
  bool preemptor_pending_ = false;
  // Set when a KV-pressure pause is in flight (MaybeKvPreempt): the
  // paused batch is held once for victim harvesting instead of being
  // resumed immediately.
  bool kv_preempt_pending_ = false;
  sim::Duration last_decode_estimate_ = 0;
  std::size_t decode_iterations_ = 0;
  std::size_t preemptions_ = 0;
  std::uint64_t prefill_group_serial_ = 0;
  std::vector<PartitionSample> partition_trace_;
  std::size_t partition_trace_capacity_ = 0;  // 0 = unbounded.
  std::size_t partition_samples_dropped_ = 0;
};

}  // namespace muxwise::core

#endif  // MUXWISE_CORE_MUXWISE_ENGINE_H_
