#include "baselines/static_disagg.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "sim/logging.h"

namespace muxwise::baselines {

struct StaticDisaggEngine::Job {
  std::unique_ptr<serve::Request> request;

  // Prefill-instance accounting.
  kv::KvPool::PrefixLease p_lease;
  std::int64_t p_reserved = 0;

  // Decode-instance accounting.
  kv::KvPool::PrefixLease d_lease;
  std::int64_t d_reserved = 0;
  std::int64_t d_cached = 0;
};

StaticDisaggEngine::StaticDisaggEngine(sim::Simulator* simulator,
                                       const serve::Deployment& deployment,
                                       Options options)
    : fault::FaultAwareEngine(simulator, deployment.slo, options.recovery),
      sim_(simulator),
      deployment_(deployment),
      options_(options) {
  MUX_CHECK(options_.prefill_tp + options_.decode_tp <= deployment_.num_gpus);
  cluster_ = std::make_unique<gpu::Cluster>(sim_, deployment_.gpu,
                                            deployment_.num_gpus);
  gpu::Instance& prefill = cluster_->AddInstance(options_.prefill_tp);
  gpu::Instance& decode = cluster_->AddInstance(options_.decode_tp);
  prefill_pool_ =
      std::make_unique<kv::KvPool>(deployment_.PoolTokens(options_.prefill_tp));
  decode_pool_ =
      std::make_unique<kv::KvPool>(deployment_.PoolTokens(options_.decode_tp));
  prefill_cost_ = std::make_unique<llm::CostModel>(
      deployment_.model, options_.prefill_tp, deployment_.gpu);
  decode_cost_ = std::make_unique<llm::CostModel>(
      deployment_.model, options_.decode_tp, deployment_.gpu);
  prefill_stream_ = prefill.device->CreateStream(deployment_.gpu.sm_count);
  decode_stream_ = decode.device->CreateStream(deployment_.gpu.sm_count);
}

StaticDisaggEngine::~StaticDisaggEngine() = default;

void StaticDisaggEngine::Enqueue(std::unique_ptr<serve::Request> request) {
  if (!AdmitOrShed(request, prefill_pool_->capacity_tokens())) return;
  auto job = std::make_unique<Job>();
  job->request = std::move(request);
  waiting_.push_back(std::move(job));
  PumpPrefill();
}

std::unique_ptr<serve::Request> StaticDisaggEngine::TakeUnstarted(
    std::int64_t id) {
  // Reap from the queues that hold no instance state: waiting_ (never
  // admitted) and migrating_ (prefill accounting already released, its
  // demand already out of the queue; decode not yet acquired). Work
  // holding KV runs to completion.
  if (std::unique_ptr<Job> job = TakeById(waiting_, id)) {
    LeaveQueue(*job->request);
    return std::move(job->request);
  }
  if (std::unique_ptr<Job> job = TakeById(migrating_, id)) {
    return std::move(job->request);
  }
  return nullptr;
}

void StaticDisaggEngine::PumpPrefill() {
  if (DomainDown(0)) return;
  if (prefill_in_flight_ || waiting_.empty()) return;

  // Pack a FIFO prefill batch within token/request limits, admitting
  // each member to the prefill pool.
  std::vector<llm::SeqWork> work;
  std::int64_t batch_tokens = 0;
  while (!waiting_.empty() &&
         static_cast<int>(prefill_batch_.size()) <
             options_.prefill_batch_requests &&
         batch_tokens < options_.prefill_batch_tokens) {
    Job& job = *waiting_.front();
    serve::Request& req = *job.request;
    kv::KvPool::PrefixLease lease =
        prefill_pool_->AcquirePrefix(req.spec->prompt, sim_->Now());
    const std::int64_t cached =
        std::min(lease.matched_tokens, req.spec->input_tokens - 1);
    // A crash-retried request (generated > 0, KV lost) also recomputes
    // the tokens it had already emitted.
    const std::int64_t need =
        (req.spec->input_tokens - cached) + req.generated;
    if (!prefill_pool_->TryReserve(need)) {
      prefill_pool_->ReleasePrefix(lease);
      break;
    }
    job.p_lease = lease;
    job.p_reserved = need;
    req.cached_tokens = cached;
    req.prefill_tokens = need;
    req.phase = serve::Phase::kPrefill;
    req.prefill_start = sim_->Now();
    LeaveQueue(req);
    work.push_back(llm::SeqWork{need, cached});
    batch_tokens += need;
    prefill_batch_.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
  }
  if (prefill_batch_.empty()) return;

  prefill_in_flight_ = true;
  ++prefill_batch_serial_;
  tracer_.SpanBegin("engine/prefill", "prefill-chunk",
                    static_cast<std::int64_t>(prefill_batch_serial_),
                    static_cast<double>(work.size()));
  const gpu::Kernel kernel = prefill_cost_->PrefillPhase(work);
  gpu::Instance& instance = cluster_->instance(0);
  // Piecewise per-layer CUDA graphs, as in modern SGLang.
  const sim::Duration launch = prefill_cost_->PrefillLayerLaunch() *
                               deployment_.model.num_layers;
  // Uncancellable submission: a prefill crash bumps p_epoch_ so
  // callbacks from the dead generation fall through.
  instance.host->Submit(launch, [this, kernel, pe = p_epoch_] {
    if (pe != p_epoch_) return;
    cluster_->instance(0).device->Launch(prefill_stream_, kernel,
                                         [this, pe] {
                                           if (pe != p_epoch_) return;
                                           OnPrefillBatchDone();
                                         });
  });
}

void StaticDisaggEngine::OnPrefillBatchDone() {
  // One prefill batch in flight at a time: the live serial is the last.
  tracer_.SpanEnd("engine/prefill", "prefill-chunk",
                  static_cast<std::int64_t>(prefill_batch_serial_));
  const sim::Time now = sim_->Now();
  std::vector<std::unique_ptr<Job>> finished_batch =
      std::move(prefill_batch_);
  prefill_batch_.clear();
  prefill_in_flight_ = false;

  std::vector<std::unique_ptr<serve::Request>> completed;
  for (auto& job : finished_batch) {
    serve::Request& req = *job->request;
    req.EmitToken(now);  // First token comes out of prefill.
    // Cache the prompt KV on the prefill instance for future turns.
    prefill_pool_->CommitSequence(req.spec->prompt, now);
    prefill_pool_->ReleaseReserved(job->p_reserved);
    job->p_reserved = 0;
    prefill_pool_->ReleasePrefix(job->p_lease);

    if (req.DecodeFinished()) {
      // Single-token output: completes without touching the decode side.
      Retire(req, serve::Outcome::kCompleted);
      completed.push_back(std::move(job->request));
      continue;
    }
    req.phase = serve::Phase::kDecode;
    migrating_.push_back(std::move(job));
  }
  for (auto& req : completed) NotifyComplete(std::move(req));
  TryMoveToDecode();
  PumpPrefill();
}

void StaticDisaggEngine::TryMoveToDecode() {
  if (DomainDown(1)) return;
  while (!migrating_.empty() &&
         decoding_.size() < static_cast<std::size_t>(
                                options_.max_decode_batch)) {
    Job& job = *migrating_.front();
    serve::Request& req = *job.request;
    kv::KvPool::PrefixLease lease =
        decode_pool_->AcquirePrefix(req.spec->prompt, sim_->Now());
    // The decode instance needs the full prompt context resident.
    const std::int64_t cached = lease.matched_tokens;
    const std::int64_t need =
        (req.spec->input_tokens - cached) + req.spec->output_tokens;
    if (!decode_pool_->TryReserve(need)) {
      decode_pool_->ReleasePrefix(lease);
      break;
    }
    job.d_lease = lease;
    job.d_cached = cached;
    job.d_reserved = need;
    auto owned = std::move(migrating_.front());
    migrating_.pop_front();

    const double migrate_bytes =
        static_cast<double>(req.spec->input_tokens + req.generated -
                            cached) *
        deployment_.model.KvBytesPerToken();
    // Identify the job by request id, not pointer: a crash on either
    // side can retire the job (and even readmit the same request) while
    // the transfer is in flight, so the callback re-resolves it and the
    // captured epochs fence off dead generations.
    const std::int64_t id = req.spec->id;
    decoding_.push_back(std::move(owned));
    cluster_->link().Send<std::int64_t>(
        migrate_bytes, id,
        [this, pe = p_epoch_, de = d_epoch_](std::int64_t moved_id) {
          if (pe != p_epoch_ || de != d_epoch_) return;
          for (auto& job : decoding_) {
            if (job->request->spec->id == moved_id) {
              job->request->progress = 1;  // Marker: KV landed, decodable.
              break;
            }
          }
          MaybeStartDecodeIteration();
        },
        [this, pe = p_epoch_, de = d_epoch_](std::int64_t moved_id) {
          if (pe != p_epoch_ || de != d_epoch_) return;
          OnMigrationFailed(moved_id);
        });
  }
}

void StaticDisaggEngine::OnMigrationFailed(std::int64_t id) {
  std::unique_ptr<Job> job = TakeById(decoding_, id);
  if (job == nullptr) return;
  decode_pool_->ReleaseReserved(job->d_reserved);
  job->d_reserved = 0;
  decode_pool_->ReleasePrefix(job->d_lease);
  job->d_lease = {};
  job->d_cached = 0;
  std::vector<std::unique_ptr<Job>> lost;
  lost.push_back(std::move(job));
  RecycleLost(std::move(lost));
}

void StaticDisaggEngine::MaybeStartDecodeIteration() {
  if (DomainDown(1)) return;
  if (decode_in_flight_) return;
  std::vector<std::int64_t> ctx;
  for (const auto& job : decoding_) {
    if (job->request->progress == 1) {  // Migration complete.
      ctx.push_back(job->request->spec->input_tokens +
                    job->request->generated);
    }
  }
  if (ctx.empty()) return;
  decode_in_flight_ = true;
  ++decode_step_serial_;
  tracer_.SpanBegin("engine/decode", "decode-step",
                    static_cast<std::int64_t>(decode_step_serial_),
                    static_cast<double>(ctx.size()));
  const gpu::Kernel kernel = decode_cost_->DecodeIteration(ctx);
  cluster_->instance(1).host->Submit(
      decode_cost_->DecodeGraphLaunch(), [this, kernel, de = d_epoch_] {
        if (de != d_epoch_) return;
        cluster_->instance(1).device->Launch(
            decode_stream_, kernel, [this, de] {
              if (de != d_epoch_) return;
              OnDecodeIterationDone();
            });
      });
}

void StaticDisaggEngine::OnDecodeIterationDone() {
  decode_in_flight_ = false;
  // One decode iteration in flight at a time: the live serial is the
  // last one started.
  tracer_.SpanEnd("engine/decode", "decode-step",
                  static_cast<std::int64_t>(decode_step_serial_));
  const sim::Time now = sim_->Now();
  std::vector<std::unique_ptr<Job>> still;
  std::vector<std::unique_ptr<serve::Request>> completed;
  still.reserve(decoding_.size());
  for (auto& job : decoding_) {
    serve::Request& req = *job->request;
    if (req.progress != 1) {  // Still migrating; not part of the batch.
      still.push_back(std::move(job));
      continue;
    }
    req.EmitToken(now);
    if (req.DecodeFinished()) {
      Finish(job.get());
      completed.push_back(std::move(job->request));
    } else {
      still.push_back(std::move(job));
    }
  }
  decoding_ = std::move(still);
  tracer_.Counter("engine/decode", "decode-pending",
                  static_cast<double>(decoding_.size()));
  for (auto& req : completed) NotifyComplete(std::move(req));
  TryMoveToDecode();
  MaybeStartDecodeIteration();
  // Decode-side drain may unblock prefill admission on the other
  // instance.
  PumpPrefill();
}

void StaticDisaggEngine::Finish(Job* job) {
  const sim::Time now = sim_->Now();
  serve::Request& req = *job->request;
  Retire(req, serve::Outcome::kCompleted);
  decode_pool_->ReleaseReserved(job->d_reserved);
  job->d_reserved = 0;
  decode_pool_->CommitSequence(req.spec->full_seq, now);
  decode_pool_->ReleasePrefix(job->d_lease);

  // Ship the generated KV back so the prefill instance can serve the
  // next turn of this session from cache.
  const double back_bytes = static_cast<double>(req.generated) *
                            deployment_.model.KvBytesPerToken();
  // Losing this warm-up (prefill crash, or the link giving up) only
  // costs a future cache hit, so the failure path is a no-op.
  cluster_->link().Send<kv::TokenSeq>(
      back_bytes, req.spec->full_seq,
      [this, pe = p_epoch_](kv::TokenSeq full) {
        if (pe != p_epoch_) return;
        prefill_pool_->CommitSequence(full, sim_->Now());
      });
}

void StaticDisaggEngine::RecycleLost(
    std::vector<std::unique_ptr<Job>> lost) {
  // Jobs arrive with their pool accounting already released; decide
  // retry vs. terminal, push retries back in age order, then notify.
  std::vector<std::unique_ptr<serve::Request>> dead;
  auto head = waiting_.begin();
  for (auto& job : lost) {
    if (RetryAfterCrash(*job->request)) {
      head = std::next(waiting_.insert(head, std::move(job)));
    } else {
      dead.push_back(std::move(job->request));
    }
  }
  for (auto& req : dead) NotifyComplete(std::move(req));
  PumpPrefill();
}

void StaticDisaggEngine::InjectCrash(std::size_t domain) {
  if (domain == 0) {
    MarkDown(0, true);
    ++p_epoch_;
    cluster_->instance(0).device->AbortAll();
    prefill_in_flight_ = false;

    // Lost to a prefill crash, oldest first: mid-migration requests
    // (their transfer source vanished), requests parked awaiting decode
    // admission (their KV lives only in the dead prefill cache), and
    // the aborted prefill batch.
    std::vector<std::unique_ptr<Job>> lost;
    std::vector<std::unique_ptr<Job>> keep;
    for (auto& job : decoding_) {
      if (job->request->progress == 0) {
        decode_pool_->ReleaseReserved(job->d_reserved);
        job->d_reserved = 0;
        decode_pool_->ReleasePrefix(job->d_lease);
        job->d_lease = {};
        job->d_cached = 0;
        lost.push_back(std::move(job));
      } else {
        keep.push_back(std::move(job));
      }
    }
    decoding_ = std::move(keep);
    for (auto& job : migrating_) lost.push_back(std::move(job));
    migrating_.clear();
    for (auto& job : prefill_batch_) {
      prefill_pool_->ReleaseReserved(job->p_reserved);
      job->p_reserved = 0;
      prefill_pool_->ReleasePrefix(job->p_lease);
      job->p_lease = {};
      lost.push_back(std::move(job));
    }
    prefill_batch_.clear();
    prefill_pool_->Clear();
    RecycleLost(std::move(lost));
    return;
  }
  if (domain == 1) {
    MarkDown(1, true);
    ++d_epoch_;
    cluster_->instance(1).device->AbortAll();
    decode_in_flight_ = false;

    // Every decoding request (migrated or mid-migration) lost its
    // decode-side KV; migrating_ jobs hold nothing on this instance and
    // simply wait for recovery (or their deadline).
    std::vector<std::unique_ptr<Job>> lost;
    for (auto& job : decoding_) {
      decode_pool_->ReleaseReserved(job->d_reserved);
      job->d_reserved = 0;
      decode_pool_->ReleasePrefix(job->d_lease);
      job->d_lease = {};
      job->d_cached = 0;
      job->request->progress = 0;
      lost.push_back(std::move(job));
    }
    decoding_.clear();
    decode_pool_->Clear();
    RecycleLost(std::move(lost));
    return;
  }
}

void StaticDisaggEngine::InjectRecovery(std::size_t domain) {
  if (domain == 0) {
    MarkDown(0, false);
    PumpPrefill();
  } else if (domain == 1) {
    MarkDown(1, false);
    TryMoveToDecode();
    MaybeStartDecodeIteration();
  }
}

void StaticDisaggEngine::InjectStraggler(std::size_t domain,
                                         double slowdown) {
  if (domain >= cluster_->num_instances()) return;
  cluster_->instance(domain).device->SetSlowdown(slowdown);
}

void StaticDisaggEngine::AttachTracer(obs::Tracer tracer) {
  fault::FaultAwareEngine::AttachTracer(tracer);
  cluster_->instance(0).device->SetTracer(tracer, "gpu0/");
  cluster_->instance(1).device->SetTracer(tracer, "gpu1/");
  prefill_pool_->set_tracer(tracer, "kv/p");
  decode_pool_->set_tracer(tracer, "kv/d");
}

void StaticDisaggEngine::RegisterAudits(
    check::InvariantRegistry& registry) const {
  fault::FaultAwareEngine::RegisterAudits(registry);
  registry.Register(
      "StaticDisaggEngine", "quiescent-scheduler",
      [this](check::AuditContext& ctx) {
        ctx.Check(waiting_.empty(), "waiting queue not drained");
        ctx.Check(migrating_.empty(), "jobs stuck migrating P -> D");
        ctx.Check(decoding_.empty(), "decode batch not drained");
        ctx.Check(prefill_batch_.empty(), "prefill batch not drained");
        ctx.Check(!prefill_in_flight_ && !decode_in_flight_,
                  "phase iteration still outstanding");
      });
  prefill_pool_->RegisterAudits(registry);
  decode_pool_->RegisterAudits(registry);
  cluster_->RegisterAudits(registry);
}

}  // namespace muxwise::baselines
