// Perf-counter registry: named, per-card monotonic counters and gauges.
//
// Modeled on the hardware-counter idiom (a perf PMU exposes a flat
// namespace of named events; a driver registers its counter block once and
// the tooling enumerates it without knowing the emitting code): each
// subsystem registers its counters at construction against the registry its
// card (or fleet) owns, keeps the returned handle, and bumps it on the hot
// path — one pointer-indirect integer add, no lookup, no lock.  The
// ad-hoc stat fields that used to live on Mcu/CoprocessorServer/
// CoprocessorFleet are now thin snapshot views over these handles
// (McuStats/ServerStats/FleetStats are built by reading the registry), so
// any tool can walk every counter on a card with snapshot() and never
// learn a new struct when a subsystem grows a metric.
//
// Kinds:
//   * Counter — monotonic u64.  add(n) only; SimTime totals ride as
//     picoseconds (add_time), so "hidden-reconfig time" is a counter too.
//   * Gauge   — instantaneous i64 level with a high-water mark (queue
//     depths).  set()/adjust() move the level; the high-water only rises.
//
// Single-threaded like the simulator's event queue (sim/scheduler.h): there
// is no internal locking, and reset()/snapshot() are only legal while the
// simulation is quiescent.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.h"

namespace aad::telemetry {

/// Monotonic event count (or picosecond total).  Handles stay valid and
/// stable for the registry's lifetime.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  /// Accumulate a simulated duration as picoseconds.
  void add_time(sim::SimTime delta) noexcept {
    value_ += static_cast<std::uint64_t>(delta.picoseconds());
  }
  std::uint64_t value() const noexcept { return value_; }
  /// The accumulated picoseconds, as a duration.
  sim::SimTime time() const noexcept {
    return sim::SimTime::ps(static_cast<std::int64_t>(value_));
  }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
};

/// Instantaneous level plus its high-water mark.
class Gauge {
 public:
  void set(std::int64_t level) noexcept {
    value_ = level;
    if (level > high_water_) high_water_ = level;
  }
  void adjust(std::int64_t delta) noexcept { set(value_ + delta); }
  std::int64_t value() const noexcept { return value_; }
  std::int64_t high_water() const noexcept { return high_water_; }

 private:
  friend class Registry;
  std::int64_t value_ = 0;
  std::int64_t high_water_ = 0;
};

enum class MetricKind : std::uint8_t { kCounter, kGauge };

/// One enumerated metric: a counter's value, or a gauge's level and
/// high-water mark.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;       ///< counter value, or gauge level
  std::int64_t high_water = 0;   ///< gauges only
};

class Registry {
 public:
  /// Get-or-register: the first call under `name` creates the metric, later
  /// calls return the same handle (two subsystems may share a counter).
  /// Registering a name under the other kind is a programming error.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// Probe without registering (nullptr when absent) — the "enumerate a
  /// card you didn't build" path, alongside snapshot().
  const Counter* find_counter(std::string_view name) const noexcept;
  const Gauge* find_gauge(std::string_view name) const noexcept;

  /// Every metric, in registration order.
  std::vector<MetricSample> snapshot() const;

  /// Zero every value and high-water mark; registrations (names, handles)
  /// survive, so held handles stay valid.
  void reset() noexcept;

  std::size_t size() const noexcept {
    return counters_.size() + gauges_.size();
  }

 private:
  template <typename T>
  struct Entry {
    std::string name;
    std::unique_ptr<T> metric;  ///< heap slot: handle addresses are stable
  };
  std::vector<Entry<Counter>> counters_;  ///< registration order
  std::vector<Entry<Gauge>> gauges_;
};

}  // namespace aad::telemetry
