#include "sim/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "common/error.h"

namespace aad::sim {

namespace {
/// Tombstones below this count never trigger compaction: rebuilding a tiny
/// heap costs more than letting the dead keys drain naturally.
constexpr std::size_t kCompactionFloor = 64;
}  // namespace

std::string to_string(SimTime t) {
  char buf[64];
  const double ps = static_cast<double>(t.picoseconds());
  if (ps >= 1e12) std::snprintf(buf, sizeof buf, "%.3f s", ps * 1e-12);
  else if (ps >= 1e9) std::snprintf(buf, sizeof buf, "%.3f ms", ps * 1e-9);
  else if (ps >= 1e6) std::snprintf(buf, sizeof buf, "%.3f us", ps * 1e-6);
  else if (ps >= 1e3) std::snprintf(buf, sizeof buf, "%.3f ns", ps * 1e-3);
  else std::snprintf(buf, sizeof buf, "%.0f ps", ps);
  return buf;
}

EventId Scheduler::schedule_at(SimTime when, Action action,
                               const void* owner) {
  AAD_REQUIRE(when >= now_, "cannot schedule an event in the past");
  std::uint32_t slot;
  if (free_.empty()) {
    AAD_CHECK(slots_.size() < UINT32_MAX, "event slot pool exhausted");
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_.back();
    free_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.owner = owner;
  s.live = true;
  ++live_;
  heap_.push_back(EventKey{when, next_sequence_++, slot, s.generation});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  return (EventId{s.generation} << 32) | slot;
}

Scheduler::Action Scheduler::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  s.owner = nullptr;
  ++s.generation;
  s.live = false;
  --live_;
  free_.push_back(slot);
  return std::exchange(s.action, nullptr);
}

bool Scheduler::cancel(EventId id) {
  // Lazy cancellation: only the action (and everything it captured) is
  // released here; the heap key becomes a tombstone.
  const auto slot = static_cast<std::uint32_t>(id);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (slot >= slots_.size() || slots_[slot].generation != generation)
    return false;
  const Action dead = release(slot);
  ++tombstones_;
  maybe_compact();
  return true;
}

std::size_t Scheduler::cancel_owned(const void* owner) {
  AAD_REQUIRE(owner != nullptr, "cancel_owned needs an owner");
  std::size_t cancelled = 0;
  // By index: a destroyed action may schedule, which can grow slots_.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot) {
    if (!slots_[slot].live || slots_[slot].owner != owner) continue;
    const Action dead = release(slot);
    ++cancelled;
  }
  tombstones_ += cancelled;
  maybe_compact();
  return cancelled;
}

void Scheduler::maybe_compact() {
  if (tombstones_ <= kCompactionFloor || tombstones_ <= live_) return;
  // Keep only keys whose slot still holds their event, then re-heapify.
  // Relative pop order is untouched — (when, sequence) is a total order, so
  // the rebuilt heap drains in exactly the sequence the old one would have.
  auto live_end = std::remove_if(
      heap_.begin(), heap_.end(), [this](const EventKey& key) {
        return slots_[key.slot].generation != key.generation;
      });
  heap_.erase(live_end, heap_.end());
  heap_.shrink_to_fit();
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  tombstones_ = 0;
}

void Scheduler::advance(SimTime delay) {
  AAD_REQUIRE(delay >= SimTime::zero(), "cannot advance time backwards");
  // Any events that would fire during the advanced window run first, so a
  // mixed analytic/event model stays causally ordered.
  const SimTime target = now_ + delay;
  run_until(target);
}

std::size_t Scheduler::drain(SimTime deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    const EventKey key = heap_.front();
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    heap_.pop_back();
    if (slots_[key.slot].generation != key.generation) {
      // Cancelled: skip, no time advance.
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    // Release before running: the action may schedule more events (reusing
    // this very slot), and its own handle must already read as fired.
    const Action action = release(key.slot);
    now_ = key.when;
    action();
    ++executed;
  }
  return executed;
}

std::size_t Scheduler::run() {
  return drain(SimTime::ps(std::numeric_limits<std::int64_t>::max()));
}

std::size_t Scheduler::run_until(SimTime deadline) {
  const std::size_t executed = drain(deadline);
  if (deadline > now_) now_ = deadline;
  return executed;
}

void Scheduler::clear() {
  heap_.clear();
  tombstones_ = 0;
  // Release rather than reset the slots: generations must keep advancing,
  // or a handle taken before the clear could cancel an event posted after.
  for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
    if (slots_[slot].live) release(slot);
}

}  // namespace aad::sim
