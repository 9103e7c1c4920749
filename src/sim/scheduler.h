// Discrete-event scheduler.
//
// The MCU firmware model, PCI bus and configuration pipeline sequence their
// work by posting events here.  Events at the same timestamp run in posting
// order (stable), which keeps simulations deterministic.
//
// schedule_at returns an EventId that cancel() can retire before it fires:
// the fault-injection machinery (a fleet cancelling a dead card's pending
// pipeline events, a timeout watchdog disarmed by its request's completion)
// needs pending work to be revocable.  Cancellation releases the event's
// callback immediately — a cancelled event must not keep its captured
// state (request payloads, completion hooks) alive until its timestamp
// drains — and a cancelled slot is skipped without advancing time or
// counting as executed.
//
// Cancellation is lazy: the heap keeps a dead EventKey (a "tombstone")
// until its timestamp drains.  Fault-heavy runs arm one watchdog per
// request and disarm almost all of them, so tombstones would otherwise
// accumulate one per request; cancel() therefore compacts the heap once
// tombstones outnumber live events (and exceed a small floor), keeping the
// heap O(live events) regardless of cancel churn.
//
// A Scheduler is single-threaded state with no internal locking: a
// CoprocessorFleet drives every card on one shared instance.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "sim/time.h"

namespace aad::sim {

/// Handle to a scheduled-but-not-yet-fired event (dense, never reused).
using EventId = std::uint64_t;

class Scheduler {
 public:
  using Action = std::function<void()>;

  /// Current simulated time.
  SimTime now() const noexcept { return now_; }

  /// Schedule `action` at absolute time `when` (>= now).  The returned id
  /// stays valid until the event fires or is cancelled.
  EventId schedule_at(SimTime when, Action action);

  /// Schedule `action` `delay` after the current time.
  EventId schedule_after(SimTime delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  /// Retire a pending event: its callback is destroyed now and the slot is
  /// skipped when its timestamp drains.  Returns false when the event
  /// already fired or was already cancelled (both harmless), so callers can
  /// disarm unconditionally.
  bool cancel(EventId id);

  /// Advance time without running events (used by analytic latency models
  /// that fold a whole operation into one duration).
  void advance(SimTime delay);

  /// Run events until the queue drains.  Returns the number executed
  /// (cancelled events are skipped, not counted).
  std::size_t run();

  /// Run events with timestamp <= `deadline`; time ends at
  /// max(now, deadline) even if the queue drained earlier.
  std::size_t run_until(SimTime deadline);

  bool idle() const noexcept { return actions_.empty(); }
  /// Live (not cancelled) pending events.
  std::size_t pending() const noexcept { return actions_.size(); }
  /// Heap slots currently held, live + tombstones (compaction telemetry).
  std::size_t heap_size() const noexcept { return heap_.size(); }

  /// Drop all pending events (device reset).
  void clear();

 private:
  /// Ordering key only; the action lives in actions_ so cancel() can
  /// release it without disturbing the heap.
  struct EventKey {
    SimTime when;
    std::uint64_t sequence;
  };
  struct Later {
    bool operator()(const EventKey& a, const EventKey& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.sequence > b.sequence;  // stable FIFO among equal timestamps
    }
  };

  /// Pop the heap top; the caller already holds a copy of it.
  void pop_top();
  /// Rebuild the heap with live keys only once tombstones dominate.
  void maybe_compact();

  SimTime now_ = SimTime::zero();
  std::uint64_t next_sequence_ = 0;
  std::vector<EventKey> heap_;  ///< binary heap (std::push_heap/pop_heap)
  std::size_t tombstones_ = 0;  ///< cancelled keys still parked in heap_
  std::unordered_map<std::uint64_t, Action> actions_;  ///< live events
};

}  // namespace aad::sim
