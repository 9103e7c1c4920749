// Discrete-event scheduler.
//
// The MCU firmware model, PCI bus and configuration pipeline sequence their
// work by posting events here.  Events at the same timestamp run in posting
// order (stable), which keeps simulations deterministic.
//
// Once warm, an event costs no allocation beyond its std::function's own:
// actions live in a slot pool (a vector plus a free list) and the binary
// heap holds only {when, sequence, slot, generation} keys, popped in
// (when, sequence) order, so slot reuse never reorders events.
//
// schedule_at returns an EventId, (generation << 32) | slot, that cancel()
// can retire before it fires: the fault-injection machinery (a fleet
// cancelling a dead card's pending pipeline events, a timeout watchdog
// disarmed by its request's completion) needs pending work to be
// revocable.  Slots are reused, so ids are too: a slot's generation
// advances whenever it is released (fired, cancelled or cleared), and an id
// or heap key whose generation no longer matches is stale — cancel()
// returns false and the run loop skips the key.  Generations survive
// clear(), so an id taken before a device reset never cancels an event
// posted after it.  (A 32-bit generation wraps after 2^32 reuses of one
// slot; holding an id that long is not supported.)
//
// Cancellation releases the event's callback immediately — a cancelled
// event must not keep its captured state (request payloads, completion
// hooks) alive until its timestamp drains — and a cancelled key is skipped
// without advancing time or counting as executed.  cancel_owned(owner)
// retires every pending event posted with that owner tag at once (a card's
// server powering off on a fleet's shared scheduler) and nobody else's.
//
// Cancellation is lazy: the heap keeps a dead key (a "tombstone") until its
// timestamp drains.  Fault-heavy runs arm one watchdog per request and
// disarm almost all of them, so tombstones would otherwise accumulate one
// per request; cancel() therefore compacts the heap once tombstones
// outnumber live events (and exceed a small floor), keeping the heap
// O(live events) regardless of cancel churn.
//
// A Scheduler is single-threaded state with no internal locking: a
// CoprocessorFleet drives every card on one shared instance.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/time.h"

namespace aad::sim {

/// Handle to a scheduled event: (generation << 32) | slot.  Valid until the
/// event fires or is cancelled; stale from then on.
using EventId = std::uint64_t;

class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `when` (>= now), tagged with
  /// `owner` for cancel_owned (null: no owner).  The returned handle stays
  /// valid until the event fires or is cancelled.
  EventId schedule_at(SimTime when, Action action,
                      const void* owner = nullptr);

  /// Schedule `action` `delay` after the current time.
  EventId schedule_after(SimTime delay, Action action,
                         const void* owner = nullptr) {
    return schedule_at(now_ + delay, std::move(action), owner);
  }

  /// Retire a pending event: its callback is destroyed now and its key is
  /// skipped when its timestamp drains.  Returns false when the handle is
  /// stale — the event already fired or was already cancelled (both
  /// harmless) — so callers can disarm unconditionally.
  bool cancel(EventId id);

  /// Retire every pending event scheduled with `owner` (non-null), as
  /// cancel() would.  Returns how many were cancelled.
  std::size_t cancel_owned(const void* owner);

  /// Advance time without running events (used by analytic latency models
  /// that fold a whole operation into one duration).
  void advance(SimTime delay);

  /// Run events until the queue drains.  Returns the number executed
  /// (cancelled events are skipped, not counted).
  std::size_t run();

  /// Run events with timestamp <= `deadline`; time ends at
  /// max(now, deadline) even if the queue drained earlier.
  std::size_t run_until(SimTime deadline);

  bool idle() const noexcept { return live_ == 0; }
  /// Live (not cancelled) pending events.
  std::size_t pending() const noexcept { return live_; }
  /// Heap keys currently held, live + tombstones (compaction telemetry).
  std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Drop all pending events (device reset).  Outstanding handles go stale.
  void clear();

 private:
  /// Ordering key; the action lives in slots_[slot] so cancel() can release
  /// it without disturbing the heap.  Stale once `generation` no longer
  /// matches the slot's.
  struct EventKey {
    SimTime when;
    std::uint64_t sequence;
    std::uint32_t slot;
    std::uint32_t generation;
  };
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;  // stable FIFO among equal timestamps
    }
  };
  struct Slot {
    Action action;
    const void* owner = nullptr;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Run due events up to `deadline` (inclusive); the shared drain loop.
  std::size_t drain(SimTime deadline);
  /// Free a live slot: advance its generation (staling its handle and heap
  /// key) and hand back its action for the caller to run or destroy.
  Action release(std::uint32_t slot);
  /// Rebuild the heap with live keys only once tombstones dominate.
  void maybe_compact();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_sequence_ = 0;
  std::vector<EventKey> heap_;  ///< binary heap (std::push_heap/pop_heap)
  std::size_t tombstones_ = 0;  ///< cancelled keys still parked in heap_
  std::vector<Slot> slots_;     ///< action pool, indexed by EventKey::slot
  std::vector<std::uint32_t> free_;  ///< released slots, reused LIFO
  std::size_t live_ = 0;             ///< live slots (pending events)
};

}  // namespace aad::sim
