#ifndef MUXWISE_SIM_SIMULATOR_H_
#define MUXWISE_SIM_SIMULATOR_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check/invariant_registry.h"
#include "sim/time.h"

namespace muxwise::sim {

/**
 * Event serial: the FIFO tie-break between same-time events and the
 * value folded into the event digest. Serials are handed out in
 * increasing order, either at scheduling time or in advance by
 * Simulator::ReserveIds(), and each is used at most once.
 */
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/**
 * Names one scheduled event for Cancel(): its serial plus the arena slot
 * it occupies. A default handle names no event.
 */
struct EventHandle {
  EventId id = kInvalidEventId;
  std::uint32_t slot = 0;
};

/**
 * Discrete-event simulator core.
 *
 * Single-threaded by design: all model components (GPU streams, serving
 * engines, workload frontends) interact solely by scheduling callbacks on
 * one Simulator, which executes them in (time, insertion-order) order.
 * That total order makes every experiment bit-reproducible.
 *
 * Performance structure (the hottest loop in the codebase):
 *
 *  - Event records live in a pooled arena (`pool_`) recycled through a
 *    free list, so steady-state scheduling allocates nothing.
 *  - The ready queue is a hand-rolled binary min-heap of POD entries
 *    (when, id, slot). Comparisons read only the entry — no pointer
 *    chasing, no reference counting — and the unique id doubles as
 *    the FIFO tie-break serial for same-timestamp events *and* as the
 *    staleness witness for cancelled entries (a heap entry whose id no
 *    longer matches its pool slot is a tombstone, skipped on pop).
 *  - Cancellation is O(1) with no map: an EventHandle carries the
 *    event's slot, and the slot still holding the handle's serial proves
 *    the event is pending (a fired or cancelled event freed its slot, and
 *    a recycled slot holds a different serial, since none is reused).
 *
 * None of this changes observable ordering: events still execute in
 * exactly (when, id) order, so event-stream digests are bit-identical
 * to the earlier std::priority_queue implementation.
 */
class Simulator {
 public:
  using Callback = std::function<void()>;

  /**
   * One executed event as captured by SetExecutionLog: exactly the
   * (when, id) pair folded into EventDigest, in execution order.
   */
  struct ExecutedEvent {
    Time when = 0;
    EventId id = kInvalidEventId;
  };

  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /** Current simulated time. */
  Time Now() const { return now_; }

  /**
   * Schedules `cb` to run at absolute time `when` (>= Now()).
   * Returns a handle usable with Cancel().
   */
  EventHandle ScheduleAt(Time when, Callback cb);

  /** Schedules `cb` to run `delay` after the current time. */
  EventHandle ScheduleAfter(Duration delay, Callback cb);

  /**
   * Reserves `n` consecutive event serials and returns the first. Each
   * may later be passed to ScheduleReserved() once; the event then
   * tie-breaks exactly as if it had been scheduled now. This lets a
   * caller keep one pending event per sequence (say, a trace's next
   * arrival) without changing the execution order or the digest.
   */
  EventId ReserveIds(std::size_t n);

  /**
   * Schedules `cb` at `when` under serial `id`, which must come from
   * ReserveIds() and not have been scheduled yet. `(when, id)` must sort
   * after the last executed event, so the (when, id) order stays total.
   */
  EventHandle ScheduleReserved(Time when, EventId id, Callback cb);

  /**
   * Cancels a pending event. Safe to call with a default handle or one
   * whose event already fired or was already cancelled (all no-ops
   * returning false).
   */
  bool Cancel(EventHandle handle);

  /**
   * Runs until the event queue drains or `max_events` events have run.
   * The budget is the guard that lets a caller terminate a livelocked
   * scenario (e.g. a zero-delay event loop that never advances time)
   * with a diagnostic instead of spinning forever. Now() stays at the
   * last executed event's time. Returns events executed.
   */
  std::size_t Run(std::size_t max_events = SIZE_MAX);

  /**
   * Runs all events with timestamp <= `until`, then sets Now() to `until`
   * (even if the queue drained earlier), executing at most `max_events`
   * events. When the budget ends the run early, Now() stays at the last
   * executed event's time rather than advancing to `until`. Returns
   * events executed.
   */
  std::size_t RunUntil(Time until, std::size_t max_events = SIZE_MAX);

  /** Executes exactly one event if any is pending. Returns true if so. */
  bool Step();

  /** True when no live events remain. */
  bool Empty() const { return live_events_ == 0; }

  /** Number of events pending (excludes cancelled tombstones). */
  std::size_t PendingEvents() const { return live_events_; }

  /** Total events executed since construction. */
  std::size_t ExecutedEvents() const { return executed_; }

  /**
   * Order-sensitive digest of the executed event stream: a hash folded
   * over (when, id) of every event fired so far. Two runs of the same
   * scenario must produce identical digests — the witness the harness's
   * determinism verifier compares. Any reordering, dropped event, or
   * timing change perturbs it.
   */
  std::uint64_t EventDigest() const { return digest_; }

  /**
   * Attaches (or detaches, with nullptr) an execution log: every event
   * executed from then on appends its (when, id) pair; recording never
   * changes execution order or the digest.
   * The log is owned by the caller and must outlive the attachment.
   */
  void SetExecutionLog(std::vector<ExecutedEvent>* log) { log_ = log; }

  /**
   * Registers event-queue consistency audits: the live-event count
   * matches the arena scan, the heap holds at least one entry per live
   * event, and no pending event precedes Now().
   */
  void RegisterAudits(check::InvariantRegistry& registry) const;

 private:
  /**
   * Pooled event record. A slot whose `id` is kInvalidEventId is free
   * (linked through `next_free`); Cancel() frees the slot immediately,
   * which implicitly tombstones the heap entry still pointing at it.
   */
  struct Event {
    Time when = 0;
    EventId id = kInvalidEventId;
    Callback callback;
    std::uint32_t next_free = kNoFreeSlot;
  };

  /** Heap entry: everything a comparison or a staleness check needs. */
  struct HeapEntry {
    Time when = 0;
    EventId id = kInvalidEventId;  // Unique FIFO tie-break serial.
    std::uint32_t slot = 0;
  };

  static constexpr std::uint32_t kNoFreeSlot = 0xffffffffu;

  /** Strict (when, id) ordering — same-time events run in schedule order. */
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.id < b.id;
  }

  std::uint32_t AllocSlot();
  void FreeSlot(std::uint32_t slot);

  void HeapPush(const HeapEntry& entry);
  void HeapPopTop();

  /**
   * Discards stale heap tombstones, returning the live minimum entry
   * (nullptr when drained). The returned pointer is invalidated by any
   * schedule/pop.
   */
  const HeapEntry* PeekLive();

  /**
   * Pops the heap minimum (which must be live) and executes it:
   * advances Now(), folds the digest, releases the slot, and invokes
   * the callback (the callback may freely schedule or cancel).
   */
  void ExecuteTop();

  /** Folds one executed event into the stream digest. */
  void FoldDigest(Time when, EventId id);

  /** Pushes a live event under serial `id`; the scheduling calls' tail. */
  EventHandle Push(Time when, EventId id, Callback cb);

  /** One ReserveIds() range and which of its serials are still unused. */
  struct Reservation {
    EventId first = kInvalidEventId;
    std::vector<bool> unused;
    std::size_t remaining = 0;
  };

  Time now_ = kTimeZero;
  EventId next_id_ = 1;
  std::size_t executed_ = 0;
  std::uint64_t digest_ = 0x9e3779b97f4a7c15ULL;
  std::size_t live_events_ = 0;
  std::vector<ExecutedEvent>* log_ = nullptr;
  ExecutedEvent last_executed_;
  std::vector<Reservation> reservations_;

  std::vector<Event> pool_;
  std::uint32_t free_head_ = kNoFreeSlot;
  std::vector<HeapEntry> heap_;
};

}  // namespace muxwise::sim

#endif  // MUXWISE_SIM_SIMULATOR_H_
