#include "sim/scheduler.h"

#include <algorithm>
#include <cstdio>

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

EventId Scheduler::schedule_at(SimTime when, Action action) {
  AAD_REQUIRE(when >= now_, "cannot schedule an event in the past");
  const EventId id = next_sequence_++;
  heap_.push_back(EventKey{when, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  actions_.emplace(id, std::move(action));
  return id;
}

bool Scheduler::cancel(EventId id) {
  // Lazy cancellation: only the action (and everything it captured) is
  // released here; the heap key becomes a tombstone.
  if (actions_.erase(id) == 0) return false;
  ++tombstones_;
  maybe_compact();
  return true;
}

void Scheduler::pop_top() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  heap_.pop_back();
}

void Scheduler::maybe_compact() {
  if (tombstones_ <= kCompactionFloor || tombstones_ <= actions_.size())
    return;
  // Keep only keys whose action is still live, then re-heapify.  Relative
  // pop order is untouched — (when, sequence) is a total order, so the
  // rebuilt heap drains in exactly the sequence the old one would have.
  auto live_end = std::remove_if(
      heap_.begin(), heap_.end(), [this](const EventKey& key) {
        return actions_.find(key.sequence) == actions_.end();
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

std::size_t Scheduler::run() {
  std::size_t executed = 0;
  while (!heap_.empty()) {
    const EventKey key = heap_.front();
    pop_top();
    const auto it = actions_.find(key.sequence);
    if (it == actions_.end()) {  // cancelled: skip, no time advance
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    // Move out before erasing: the action may schedule more events.
    Action action = std::move(it->second);
    actions_.erase(it);
    now_ = key.when;
    action();
    ++executed;
  }
  return executed;
}

std::size_t Scheduler::run_until(SimTime deadline) {
  std::size_t executed = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    const EventKey key = heap_.front();
    pop_top();
    const auto it = actions_.find(key.sequence);
    if (it == actions_.end()) {  // cancelled: skip, no time advance
      if (tombstones_ > 0) --tombstones_;
      continue;
    }
    Action action = std::move(it->second);
    actions_.erase(it);
    now_ = key.when;
    action();
    ++executed;
  }
  if (deadline > now_) now_ = deadline;
  return executed;
}

void Scheduler::clear() {
  heap_.clear();
  actions_.clear();
  tombstones_ = 0;
}

}  // namespace aad::sim
