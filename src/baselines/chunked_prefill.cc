#include "baselines/chunked_prefill.h"

#include <algorithm>
#include <iterator>
#include <utility>

#include "serve/admission.h"
#include "sim/logging.h"

namespace muxwise::baselines {

ChunkedPrefillEngine::ChunkedPrefillEngine(
    sim::Simulator* simulator, const serve::Deployment& deployment,
    Options options)
    : fault::FaultAwareEngine(simulator, deployment.slo, options.recovery),
      sim_(simulator),
      deployment_(deployment),
      options_(options) {
  MUX_CHECK(options_.token_budget >= 1);
  device_ = std::make_unique<gpu::Gpu>(sim_, deployment_.gpu);
  host_ = std::make_unique<gpu::HostThread>(sim_);
  pool_ = std::make_unique<kv::KvPool>(
      deployment_.PoolTokens(deployment_.num_gpus));
  cost_ = std::make_unique<llm::CostModel>(deployment_.model,
                                           deployment_.num_gpus,
                                           deployment_.gpu);
  stream_ = device_->CreateStream(deployment_.gpu.sm_count);
  nano_stream_ = device_->CreateStream(deployment_.gpu.sm_count);
}

ChunkedPrefillEngine::~ChunkedPrefillEngine() = default;

void ChunkedPrefillEngine::Enqueue(std::unique_ptr<serve::Request> request) {
  if (!AdmitOrShed(request, pool_->capacity_tokens())) return;
  waiting_.push_back(std::move(request));
  PumpAdmissions();
  MaybeStartIteration();
}

void ChunkedPrefillEngine::PumpAdmissions() {
  if (DomainDown(0)) return;
  // FIFO admission: stop at the first request the pool cannot hold or
  // when the running set reaches the decode batch cap.
  while (!waiting_.empty() &&
         prefilling_.size() + decoding_.size() <
             static_cast<std::size_t>(options_.max_decode_batch)) {
    serve::Request& head = *waiting_.front();
    if (!serve::AdmitToPool(*pool_, head, sim_->Now())) break;
    head.phase = serve::Phase::kPrefill;
    head.prefill_start = sim_->Now();
    LeaveQueue(head);
    prefilling_.push_back(std::move(waiting_.front()));
    waiting_.pop_front();
  }
}

void ChunkedPrefillEngine::MaybeStartIteration() {
  if (DomainDown(0)) return;
  if (iteration_in_flight_) return;
  if (prefilling_.empty() && decoding_.empty()) return;

  // Budget: decode tokens first (one per running sequence), remainder
  // goes to prefill chunks, packed FIFO across requests (SARATHI).
  std::int64_t budget_left =
      std::max<std::int64_t>(0, options_.token_budget -
                                    static_cast<std::int64_t>(
                                        decoding_.size()));
  std::vector<llm::SeqWork> chunks;
  inflight_chunks_.clear();
  for (auto& req : prefilling_) {
    if (budget_left <= 0) break;
    const std::int64_t remaining = req->prefill_tokens - req->progress;
    MUX_CHECK(remaining > 0);
    const std::int64_t take = std::min(budget_left, remaining);
    // The chunk attends everything already in the cache for this
    // request: the reused prefix plus previously processed chunks.
    chunks.push_back(llm::SeqWork{take, req->cached_tokens + req->progress});
    inflight_chunks_.emplace_back(req.get(), take);
    budget_left -= take;
  }

  std::vector<std::int64_t> decode_ctx;
  decode_ctx.reserve(decoding_.size());
  for (const auto& req : decoding_) {
    decode_ctx.push_back(req->spec->input_tokens + req->generated);
  }

  if (chunks.empty() && decode_ctx.empty()) return;
  iteration_in_flight_ = true;
  ++iterations_;
  tracer_.SpanBegin("engine/iteration", "iteration",
                    static_cast<std::int64_t>(iterations_),
                    static_cast<double>(chunks.size() + decode_ctx.size()));

  // Pure-decode iterations take the efficient CUDA-graph decode path;
  // only iterations carrying a chunk pay the fused-GEMM execution.
  const gpu::Kernel fused = chunks.empty()
                                ? cost_->DecodeIteration(decode_ctx)
                                : cost_->FusedChunk(chunks, decode_ctx);

  if (!options_.nano_overlap) {
    // The host submission cannot be cancelled; a crash bumps the epoch
    // so callbacks from the dead device generation fall through.
    host_->Submit(cost_->DecodeGraphLaunch(), [this, fused, e = epoch()] {
      if (e != epoch()) return;
      device_->Launch(stream_, fused, [this, e] {
        if (e != epoch()) return;
        OnIterationDone();
      });
    });
    return;
  }

  // NanoFlow: split into nano-batches on two concurrent streams. Each
  // nano-batch re-streams the full weights but overlaps better.
  const int n = std::max(2, options_.nano_batches);
  nano_outstanding_ = n;
  const double kv_bytes = std::max(
      0.0, fused.bytes - cost_->WeightBytesPerGpu());
  for (int i = 0; i < n; ++i) {
    gpu::Kernel nano = fused;
    nano.flops = fused.flops / n;
    nano.bytes = cost_->WeightBytesPerGpu() + kv_bytes / n;
    nano.fixed_time = fused.fixed_time / n;
    nano.overlap_alpha = 0.05;  // Operator-level overlap, NanoFlow's win.
    static const gpu::KernelTagId kNanoTag = gpu::InternKernelTag("nano");
    nano.tag = kNanoTag;
    const gpu::StreamId target = (i % 2 == 0) ? stream_ : nano_stream_;
    host_->Submit(cost_->DecodeGraphLaunch(),
                  [this, target, nano, e = epoch()] {
                    if (e != epoch()) return;
                    device_->Launch(target, nano, [this, e] {
                      if (e != epoch()) return;
                      if (--nano_outstanding_ == 0) OnIterationDone();
                    });
                  });
  }
}

void ChunkedPrefillEngine::OnIterationDone() {
  iteration_in_flight_ = false;
  // One fused iteration in flight at a time: the live serial is the
  // last one started.
  tracer_.SpanEnd("engine/iteration", "iteration",
                  static_cast<std::int64_t>(iterations_));
  const sim::Time now = sim_->Now();
  // Completions are only handed back once engine state is consistent:
  // NotifyComplete can synchronously re-enter Enqueue with the next
  // turn of the finished request's session.
  std::vector<std::unique_ptr<serve::Request>> completed;

  // Decode side: every running sequence emitted one token.
  std::vector<std::unique_ptr<serve::Request>> still_decoding;
  still_decoding.reserve(decoding_.size());
  for (auto& req : decoding_) {
    req->EmitToken(now);
    if (req->DecodeFinished()) {
      Retire(*req, serve::Outcome::kCompleted);
      serve::FinishInPool(*pool_, *req, now);
      completed.push_back(std::move(req));
    } else {
      still_decoding.push_back(std::move(req));
    }
  }
  decoding_ = std::move(still_decoding);
  tracer_.Counter("engine/decode", "decode-pending",
                  static_cast<double>(decoding_.size()));

  // Prefill side: advance chunk progress; completed prefills produce
  // their first token now and join the decode batch.
  for (auto& [req, take] : inflight_chunks_) {
    req->progress += take;
    MUX_CHECK(req->progress <= req->prefill_tokens);
  }
  inflight_chunks_.clear();
  while (!prefilling_.empty() &&
         prefilling_.front()->progress >= prefilling_.front()->prefill_tokens) {
    auto req = std::move(prefilling_.front());
    prefilling_.pop_front();
    req->EmitToken(now);  // First token.
    if (req->DecodeFinished()) {
      // Degenerate single-token outputs finish at prefill.
      Retire(*req, serve::Outcome::kCompleted);
      serve::FinishInPool(*pool_, *req, now);
      completed.push_back(std::move(req));
    } else {
      req->phase = serve::Phase::kDecode;
      decoding_.push_back(std::move(req));
    }
  }

  for (auto& req : completed) NotifyComplete(std::move(req));
  PumpAdmissions();
  MaybeStartIteration();
}

void ChunkedPrefillEngine::InjectCrash(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, true);
  BumpEpoch();  // Invalidate every in-flight host/device callback.
  device_->AbortAll();
  iteration_in_flight_ = false;
  nano_outstanding_ = 0;
  inflight_chunks_.clear();

  // Every admitted request just lost its KV. Collect them in admission
  // order, release their pool accounting, then drop the whole pool —
  // reused prefixes cached on the dead instance are gone too.
  std::vector<std::unique_ptr<serve::Request>> lost;
  for (auto& req : prefilling_) lost.push_back(std::move(req));
  prefilling_.clear();
  for (auto& req : decoding_) lost.push_back(std::move(req));
  decoding_.clear();
  for (auto& req : lost) serve::AbandonInPool(*pool_, *req);
  pool_->Clear();

  // Requeues go ahead of fresh arrivals — they are the oldest work —
  // preserving their relative admission order.
  std::vector<std::unique_ptr<serve::Request>> dead;
  auto head = waiting_.begin();
  for (auto& req : lost) {
    if (RetryAfterCrash(*req)) {
      head = std::next(waiting_.insert(head, std::move(req)));
    } else {
      dead.push_back(std::move(req));
    }
  }
  for (auto& req : dead) NotifyComplete(std::move(req));
}

void ChunkedPrefillEngine::InjectRecovery(std::size_t domain) {
  if (domain != 0) return;
  MarkDown(0, false);
  PumpAdmissions();
  MaybeStartIteration();
}

void ChunkedPrefillEngine::InjectStraggler(std::size_t domain,
                                           double slowdown) {
  if (domain != 0) return;
  device_->SetSlowdown(slowdown);
}

void ChunkedPrefillEngine::AttachTracer(obs::Tracer tracer) {
  fault::FaultAwareEngine::AttachTracer(tracer);
  device_->SetTracer(tracer, "gpu/");
  pool_->set_tracer(tracer, "kv");
}

int ChunkedPrefillEngine::TuneTokenBudget(const serve::Deployment& deployment,
                                          sim::Duration tbt_target,
                                          int decode_batch,
                                          std::int64_t decode_context,
                                          std::int64_t chunk_context) {
  sim::Simulator scratch;
  gpu::Gpu device(&scratch, deployment.gpu);
  llm::CostModel cost(deployment.model, deployment.num_gpus, deployment.gpu);
  const std::vector<std::int64_t> decode_ctx(
      static_cast<std::size_t>(decode_batch), decode_context);

  int best = 64;  // Smallest practical budget.
  for (int budget = 64; budget <= 8192; budget *= 2) {
    const std::int64_t chunk = std::max<std::int64_t>(1, budget - decode_batch);
    const gpu::Kernel fused = cost.FusedChunk(
        {llm::SeqWork{chunk, chunk_context}}, decode_ctx);
    const double seconds = device.SoloDurationSeconds(
        fused, deployment.gpu.sm_count);
    // Keep a tuning margin: runtime batches, all-reduce jitter and
    // launch serialization push the realized tail above the calibrated
    // point, so operators tune below the raw target.
    const sim::Duration budgeted =
        static_cast<sim::Duration>(0.85 * static_cast<double>(tbt_target));
    if (static_cast<sim::Duration>(seconds * 1e9) +
            cost.DecodeGraphLaunch() <=
        budgeted) {
      best = budget;
    }
  }
  return best;
}

void ChunkedPrefillEngine::RegisterAudits(
    check::InvariantRegistry& registry) const {
  fault::FaultAwareEngine::RegisterAudits(registry);
  registry.Register(
      "ChunkedPrefillEngine", "quiescent-scheduler",
      [this](check::AuditContext& ctx) {
        ctx.Check(waiting_.empty(), "waiting queue not drained");
        ctx.Check(prefilling_.empty(), "prefill queue not drained");
        ctx.Check(decoding_.empty(), "decode batch not drained");
        ctx.Check(!iteration_in_flight_, "iteration still outstanding");
        ctx.Check(nano_outstanding_ == 0,
                  "nano-batches still outstanding");
        ctx.Check(inflight_chunks_.empty(), "chunks of a dead iteration");
      });
  pool_->RegisterAudits(registry);
  device_->RegisterAudits(registry);
}

}  // namespace muxwise::baselines
