#ifndef MUXWISE_GPU_GPU_H_
#define MUXWISE_GPU_GPU_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "check/invariant_registry.h"
#include "gpu/gpu_spec.h"
#include "gpu/kernel.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace muxwise::gpu {

/** Identifies a stream (and its green-context SM allocation) on a Gpu. */
using StreamId = int;

/** Accounting per stream, used for bubble-ratio analysis (paper §4.4.2). */
struct StreamStats {
  sim::Duration busy_time = 0;          // Time with a kernel executing.
  sim::Time first_activity = sim::kTimeNever;
  sim::Time last_activity = 0;
  std::size_t kernels_completed = 0;

  /** Fraction of the active window [first, last] with no kernel running. */
  double BubbleRatio() const;
};

/**
 * Execution model for one GPU (representing every GPU of a symmetric
 * tensor-parallel group; kernels carry per-GPU work).
 *
 * Duration of a kernel emerges from a roofline:
 *   max(compute_time(sms), bytes / allocated_bandwidth) + fixed_time
 * where HBM bandwidth is arbitrated max-min among concurrently running
 * kernels, shrunk by a deterministic interference factor whenever more
 * than one stream is active (the "unmanaged contention" of paper §3.3).
 * Running kernels are re-rated whenever the active set changes, in the
 * style of processor-sharing queues.
 *
 * Streams follow CUDA semantics: in-order, one kernel executing at a
 * time, concurrent across streams. Each stream is bound to a
 * green-context SM allocation that can be reconfigured at any time and
 * takes effect for subsequently started kernels. If the running streams'
 * allocations oversubscribe the device (possible when a caller opts out
 * of partition management, e.g. the WindServe variant), effective SMs
 * are scaled proportionally.
 */
class Gpu {
 public:
  using Callback = std::function<void()>;

  Gpu(sim::Simulator* simulator, GpuSpec spec);

  Gpu(const Gpu&) = delete;
  Gpu& operator=(const Gpu&) = delete;

  /** Creates a stream with an initial SM allocation (0 < sms <= total). */
  StreamId CreateStream(int sms);

  /**
   * Reconfigures the stream's green context. Takes effect when the next
   * kernel starts; the currently running kernel keeps its SMs, matching
   * green-context semantics (reconfiguration costs a stream sync, which
   * callers model as host time).
   */
  void SetStreamSms(StreamId stream, int sms);

  int StreamSms(StreamId stream) const;

  /**
   * Enqueues a kernel. `on_complete` (optional) fires after the kernel
   * finishes and the stream has advanced.
   */
  void Launch(StreamId stream, Kernel kernel, Callback on_complete = {});

  /**
   * Invokes `fn` once everything currently enqueued on the stream has
   * completed (immediately if the stream is idle). Models recording a
   * CUDA event at the current tail.
   */
  void OnStreamDrained(StreamId stream, Callback fn);

  /** True when the stream has no running or queued kernels. */
  bool StreamIdle(StreamId stream) const;

  /** Number of queued (not yet started) kernels on the stream. */
  std::size_t StreamQueueDepth(StreamId stream) const;

  const GpuSpec& spec() const { return spec_; }
  sim::Simulator* simulator() const { return sim_; }

  const StreamStats& stream_stats(StreamId stream) const;

  /**
   * Integral of (allocated busy SMs / total SMs) dt since construction,
   * in nanoseconds of "full-device time". Utilization over an interval is
   * (integral(t1) - integral(t0)) / (t1 - t0); callers snapshot it.
   */
  double SmUtilizationIntegral() const;

  /** Integral of "at least one kernel running" time, ns. */
  double BusyTimeIntegral() const;

  /** Solo compute time (seconds) of a kernel on `sms` SMs. */
  double ComputeTimeSeconds(const Kernel& kernel, int sms) const;

  /**
   * Ground-truth duration (seconds) the kernel would take running alone
   * on `sms` SMs — the quantity the solo-run predictor approximates.
   */
  double SoloDurationSeconds(const Kernel& kernel, int sms) const;

  /** Total kernels completed on this device. */
  std::size_t kernels_completed() const { return kernels_completed_; }

  /**
   * Straggler injection: stretches every running and future kernel by
   * `factor` (>= 1). Running kernels are re-rated immediately, keeping
   * the progress they already made. Predictions (SoloDurationSeconds)
   * are deliberately unaffected — a straggler is precisely the gap
   * between the planner's model and the device's reality.
   */
  void SetSlowdown(double factor);
  double slowdown() const { return slowdown_; }

  /**
   * Zombie injection: freezing the device advances every running
   * kernel's progress up to now, cancels its completion event, and
   * stops the clock for it — launches still queue and start (the device
   * accepts work; it just never finishes any), which is exactly what
   * makes a zombie look busy. Thawing re-rates from the retained
   * progress. Idempotent; predictions are unaffected.
   */
  void SetFrozen(bool frozen);
  bool frozen() const { return frozen_; }

  /**
   * Silent degradation: effective FLOPs and the HBM bandwidth pool/cap
   * scale by factors in (0, 1] for running and future kernels (applied
   * in Rerate only — SoloDurationSeconds stays at spec, the same
   * model/reality gap as SetSlowdown). (1.0, 1.0) restores the device.
   */
  void SetDegrade(double flops_factor, double bandwidth_factor);
  double degrade_flops_factor() const { return degrade_flops_; }
  double degrade_bandwidth_factor() const { return degrade_bandwidth_; }

  /**
   * Crash injection: aborts every running and queued kernel on every
   * stream. Completion events are cancelled and their callbacks dropped
   * — exactly the dangling-callback hazard engines must guard against
   * (see tools/muxlint's dangling-callback rule). Busy-time accounting
   * accrues up to now; aborted kernels never count as completed.
   * Returns the number of kernels aborted.
   */
  std::size_t AbortAll();

  /** Total kernels aborted by AbortAll() (diagnostics). */
  std::size_t kernels_aborted() const { return kernels_aborted_; }

  /**
   * Registers per-stream accounting audits: SM grants within device
   * bounds, busy-time accounting inside each stream's activity window,
   * and kernel-completion counters in agreement.
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

  /**
   * Attaches a tracer. Kernel execute windows become spans named
   * "kernel" on track `<prefix>s<stream>` (id = a device-wide launch
   * serial, value = the green-context SM grant), HBM arbitration shares
   * become "hbm-share" counters on the same track, and aborts emit
   * "kernel-abort" instants. Purely observational: attaching never
   * schedules events or changes kernel timing.
   */
  void SetTracer(obs::Tracer tracer, std::string track_prefix);

 private:
  /**
   * Completion callbacks for one kernel. Almost every kernel carries
   * zero or one callback; the inline primary slot avoids the vector
   * allocation std::vector<Callback> paid on every Launch, and the
   * overflow vector only materializes for OnStreamDrained pile-ups.
   */
  class CallbackChain {
   public:
    void Add(Callback cb) {
      if (primary_ == nullptr) {
        primary_ = std::move(cb);
      } else {
        overflow_.push_back(std::move(cb));
      }
    }

    /** Runs the callbacks in Add() order. */
    void Invoke() {
      if (primary_) primary_();
      for (Callback& cb : overflow_) cb();
    }

   private:
    Callback primary_;
    std::vector<Callback> overflow_;
  };

  struct QueuedKernel {
    Kernel kernel;
    CallbackChain on_complete;
  };

  struct RunningKernel {
    Kernel kernel;
    CallbackChain on_complete;
    std::uint64_t serial = 0;  // Device-wide launch serial (trace id).
    int granted_sms = 0;      // Green-context grant when it started.
    double fraction_done = 0.0;
    sim::Time last_update = 0;
    sim::Duration current_total = 0;  // Full duration under current rates.
    sim::EventHandle completion;
  };

  /** Sentinel for a not-yet-interned trace label cache entry. */
  static constexpr std::uint32_t kLabelUnset = 0xffffffffu;

  struct Stream {
    int sms = 0;
    std::deque<QueuedKernel> queue;
    std::optional<RunningKernel> running;
    StreamStats stats;
    // Lazily interned trace track index (rebuilt on SetTracer). Lazy
    // interning keeps the recorder's intern-table order identical to the
    // uncached per-event path, so traces stay bit-reproducible.
    std::uint32_t track_label = kLabelUnset;
  };

  /** Demand/allocation scratch row for one Rerate() pass. */
  struct Rated {
    StreamId id;
    double compute_seconds;
    double demand;  // Desired bytes/s, capped by the SM bandwidth cap.
    double alloc = 0.0;
  };

  Stream& GetStream(StreamId id);
  const Stream& GetStream(StreamId id) const;

  /** Starts the next queued kernel on `id` if the stream is free. */
  void TryStart(StreamId id);

  /** Handles completion of the running kernel on `id`. */
  void Complete(StreamId id);

  /**
   * Re-derives every running kernel's duration from current SM grants
   * and bandwidth arbitration, advancing progress first. O(active
   * streams) per call: idle streams are never visited.
   */
  void Rerate();

  /** Deterministic interference factor for the current active set. */
  double InterferenceFactor();

  /** Advances the utilization integrals up to now. */
  void AdvanceIntegrals();

  /** Trace track for one stream (empty when tracing is off). */
  std::string StreamTrack(StreamId id) const;

  /** Marks `id` active/idle in the sorted active-stream index. */
  void MarkActive(StreamId id);
  void MarkIdle(StreamId id);

  /** Cached intern of the stream's trace track. */
  std::uint32_t TrackLabel(StreamId id);

  /** Cached intern of a trace event name into `*cache`. */
  std::uint32_t NameLabel(std::uint32_t* cache, std::string_view name);

  sim::Simulator* sim_;
  GpuSpec spec_;
  std::vector<Stream> streams_;
  std::size_t kernels_completed_ = 0;
  std::size_t kernels_aborted_ = 0;
  std::uint64_t next_kernel_serial_ = 0;
  double slowdown_ = 1.0;  // Straggler stretch factor (>= 1).
  bool frozen_ = false;    // Zombie: completions stalled, progress kept.
  double degrade_flops_ = 1.0;      // Silent FLOPs derating, (0, 1].
  double degrade_bandwidth_ = 1.0;  // Silent HBM derating, (0, 1].

  // Streams with a running kernel, ascending id. Rerate, interference
  // hashing and the utilization integrals walk this instead of scanning
  // every stream; ascending order preserves the exact demand-vector
  // construction order of the full-scan implementation.
  std::vector<StreamId> active_streams_;

  // Reusable scratch for Rerate()/InterferenceFactor(); cleared, never
  // shrunk, so steady-state re-arbitration does not allocate.
  std::vector<Rated> rated_scratch_;
  std::vector<std::uint64_t> parts_scratch_;

  obs::Tracer tracer_;
  std::string track_prefix_;
  // Lazily interned event-name indices (see Stream::track_label).
  std::uint32_t kernel_name_label_ = kLabelUnset;
  std::uint32_t hbm_name_label_ = kLabelUnset;
  std::uint32_t abort_name_label_ = kLabelUnset;

  // Utilization accounting.
  sim::Time integral_updated_at_ = 0;
  double sm_utilization_integral_ = 0.0;  // sum over dt of busy_sms/total.
  double busy_time_integral_ = 0.0;       // dt where >=1 kernel runs.
};

}  // namespace muxwise::gpu

#endif  // MUXWISE_GPU_GPU_H_
