#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace muxwise::sim {

// --- Event arena -----------------------------------------------------------

std::uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNoFreeSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = pool_[slot].next_free;
    return slot;
  }
  pool_.emplace_back();
  return static_cast<std::uint32_t>(pool_.size()) - 1;
}

void Simulator::FreeSlot(std::uint32_t slot) {
  Event& event = pool_[slot];
  event.id = kInvalidEventId;
  event.callback = nullptr;
  event.next_free = free_head_;
  free_head_ = slot;
}

// --- Binary heap -----------------------------------------------------------

void Simulator::HeapPush(const HeapEntry& entry) {
  heap_.push_back(entry);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!Before(heap_[i], heap_[parent])) break;
    std::swap(heap_[i], heap_[parent]);
    i = parent;
  }
}

void Simulator::HeapPopTop() {
  heap_[0] = heap_.back();
  heap_.pop_back();
  const std::size_t n = heap_.size();
  std::size_t i = 0;
  while (true) {
    const std::size_t left = 2 * i + 1;
    if (left >= n) break;
    const std::size_t right = left + 1;
    std::size_t least =
        (right < n && Before(heap_[right], heap_[left])) ? right : left;
    if (!Before(heap_[least], heap_[i])) break;
    std::swap(heap_[i], heap_[least]);
    i = least;
  }
}

const Simulator::HeapEntry* Simulator::PeekLive() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    // A cancelled event freed its slot; the slot's id no longer matches
    // (freed, or already recycled by another event), marking the entry
    // as a tombstone.
    if (pool_[top.slot].id == top.id) return &top;
    HeapPopTop();
  }
  return nullptr;
}

// --- Scheduling API --------------------------------------------------------

EventHandle Simulator::Push(Time when, EventId id, Callback cb) {
  MUX_CHECK(cb != nullptr);
  const std::uint32_t slot = AllocSlot();
  Event& event = pool_[slot];
  event.when = when;
  event.id = id;
  event.callback = std::move(cb);
  HeapPush(HeapEntry{when, id, slot});
  ++live_events_;
  return EventHandle{id, slot};
}

EventHandle Simulator::ScheduleAt(Time when, Callback cb) {
  MUX_CHECK(when >= now_);
  return Push(when, next_id_++, std::move(cb));
}

EventId Simulator::ReserveIds(std::size_t n) {
  MUX_CHECK(n > 0);
  const EventId first = next_id_;
  next_id_ += n;
  reservations_.push_back(Reservation{first, std::vector<bool>(n, true), n});
  return first;
}

EventHandle Simulator::ScheduleReserved(Time when, EventId id, Callback cb) {
  auto it = std::find_if(
      reservations_.begin(), reservations_.end(),
      [id](const Reservation& r) {
        return id >= r.first && id - r.first < r.unused.size();
      });
  MUX_CHECK(it != reservations_.end());
  MUX_CHECK(it->unused[id - it->first]);
  MUX_CHECK(when >= now_);
  MUX_CHECK(when > last_executed_.when || id > last_executed_.id);
  it->unused[id - it->first] = false;
  if (--it->remaining == 0) reservations_.erase(it);
  return Push(when, id, std::move(cb));
}

EventHandle Simulator::ScheduleAfter(Duration delay, Callback cb) {
  MUX_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Cancel(EventHandle handle) {
  // The slot still holds the handle's serial only while the event is
  // pending: firing or cancelling frees the slot, and a recycled slot
  // carries a different serial (no serial is used twice).
  if (handle.id == kInvalidEventId || handle.slot >= pool_.size() ||
      pool_[handle.slot].id != handle.id) {
    return false;
  }
  // Freeing the slot releases the callback now and implicitly turns the
  // heap entry into a tombstone discarded on its way to the top.
  FreeSlot(handle.slot);
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  return true;
}

void Simulator::FoldDigest(Time when, EventId id) {
  // Boost-style hash fold over (when, id); order-sensitive by design.
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  digest_ = mix(digest_, static_cast<std::uint64_t>(when));
  digest_ = mix(digest_, id);
}

void Simulator::ExecuteTop() {
  const HeapEntry entry = heap_[0];
  HeapPopTop();
  Event& event = pool_[entry.slot];
  MUX_CHECK(event.when >= now_);
  now_ = event.when;
  // Detach the callback and release the slot *before* invoking, so the
  // callback can schedule (possibly reusing this slot) or cancel freely.
  Callback callback = std::move(event.callback);
  FreeSlot(entry.slot);
  MUX_CHECK(live_events_ > 0);
  --live_events_;
  ++executed_;
  last_executed_ = ExecutedEvent{entry.when, entry.id};
  FoldDigest(entry.when, entry.id);
  if (log_ != nullptr) log_->push_back(ExecutedEvent{entry.when, entry.id});
  callback();
}

bool Simulator::Step() {
  if (PeekLive() == nullptr) return false;
  ExecuteTop();
  return true;
}

std::size_t Simulator::Run(std::size_t max_events) {
  std::size_t n = 0;
  while (n < max_events && Step()) ++n;
  return n;
}

std::size_t Simulator::RunUntil(Time until, std::size_t max_events) {
  MUX_CHECK(until >= now_);
  std::size_t n = 0;
  while (n < max_events) {
    const HeapEntry* top = PeekLive();
    if (top == nullptr || top->when > until) {
      now_ = until;
      return n;
    }
    ExecuteTop();
    ++n;
  }
  // Budget exhausted mid-stream: Now() stays at the last event's time so
  // the caller can see where the scenario stalled.
  return n;
}

void Simulator::RegisterAudits(check::InvariantRegistry& registry) const {
  registry.Register(
      "Simulator", "event-queue-consistency",
      [this](check::AuditContext& ctx) {
        // Every live event owns exactly one arena slot (cancelled events
        // free their slot immediately) and one heap entry (tombstones
        // only add entries).
        std::size_t live = 0;
        Time min_when = kTimeNever;
        for (const Event& event : pool_) {
          if (event.id == kInvalidEventId) continue;
          ++live;
          min_when = std::min(min_when, event.when);
          ctx.Check(event.callback != nullptr,
                    "live event " + std::to_string(event.id) +
                        " lost its callback");
        }
        ctx.Check(live == live_events_,
                  "live-event count " + std::to_string(live_events_) +
                      " disagrees with arena scan " + std::to_string(live));
        ctx.Check(heap_.size() >= live_events_,
                  "heap holds " + std::to_string(heap_.size()) +
                      " entries for " + std::to_string(live_events_) +
                      " live events");
        if (live > 0) {
          ctx.Check(min_when >= now_,
                    "pending event at t=" + std::to_string(min_when) +
                        " precedes Now()=" + std::to_string(now_));
        }
      });
  registry.Register("Simulator", "time-monotonic",
                    [this](check::AuditContext& ctx) {
                      ctx.Check(now_ >= kTimeZero,
                                "Now()=" + std::to_string(now_) +
                                    " ran backwards past simulation start");
                    });
}

}  // namespace muxwise::sim
