// Chrome-trace sink: lifecycle spans recorded in sim-time, exported as
// trace-event JSON that chrome://tracing and Perfetto open directly.
//
// The sink is a tree of tracks.  A *process* groups one pipeline instance
// (one fleet, or one bare server) and a *track* is one serialized resource
// lane inside it — per card: the PCI bus, the config engine, the fabric,
// and the batch-hold lane; per fleet: the dispatch/fault lane.  Components
// append complete spans ("X" events) and instants ("i") to their own
// track; begin/end pairs never cross the process boundary, so a track's
// spans mirror exactly the occupancy windows the simulator booked.
//
// Single-threaded like sim/scheduler.h and telemetry/registry.h: recording
// takes no lock.  Each track keeps its own buffer; merged()/
// write_chrome_trace() merge them AFTER the run by the total order
// (timestamp, process, track, per-track sequence), which has no ties, so
// the merged span set does not depend on recording order.
//
// Everything is pointer-gated: a component without an attached track skips
// recording on a single branch, so the off path costs nothing and the
// gated bench baselines stay byte-identical.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/time.h"

namespace aad::telemetry {

/// One trace event: a complete span (duration >= 0) or an instant.
struct TraceEvent {
  std::int64_t ts_ps = 0;    ///< sim-time begin, picoseconds
  std::int64_t dur_ps = -1;  ///< span duration; negative = instant event
  std::uint32_t process = 0;  ///< Chrome pid (pipeline instance)
  std::uint32_t track = 0;    ///< Chrome tid (resource lane)
  std::uint64_t seq = 0;      ///< per-track posting order (merge tie-break)
  const char* category = "";  ///< "pci" | "engine" | "fabric" | ...
  const char* name = "";
  // Args (negative = absent): which request/client/function/card the span
  // belongs to, so a Perfetto query can slice by any of them.
  std::int64_t request = -1;
  std::int64_t client = -1;
  std::int64_t function = -1;
  std::int64_t card = -1;

  bool is_span() const noexcept { return dur_ps >= 0; }
};

/// One resource lane.  Append-only; created via TraceSink::add_track.
class TraceTrack {
 public:
  /// `card` >= 0 overrides the track's default card arg (the fleet's
  /// dispatch lane stamps which card each decision picked).
  void span(const char* category, const char* name, sim::SimTime begin,
            sim::SimTime end, std::int64_t request = -1,
            std::int64_t client = -1, std::int64_t function = -1,
            std::int64_t card = -1);
  void instant(const char* category, const char* name, sim::SimTime at,
               std::int64_t request = -1, std::int64_t client = -1,
               std::int64_t function = -1, std::int64_t card = -1);

  std::size_t events() const noexcept { return events_.size(); }

 private:
  friend class TraceSink;
  TraceTrack(std::uint32_t process, std::uint32_t track, std::int64_t card)
      : process_(process), track_(track), card_(card) {}

  std::uint32_t process_;
  std::uint32_t track_;
  std::int64_t card_;  ///< stamped into every event (-1 = no card)
  std::uint64_t next_seq_ = 0;
  std::vector<TraceEvent> events_;
};

class TraceSink {
 public:
  /// Register a pipeline instance ("fleet", "card 2", "F1 cards=4/card 0").
  /// Returns its Chrome pid.  Instances are never reused: a bench that runs
  /// ten fleets registers ten processes, so each run's spans stay on their
  /// own monotonic tracks.
  std::uint32_t add_process(std::string name);

  /// Register a lane under `process`; `card` (when >= 0) is stamped into
  /// every event the lane records.  The returned track lives as long as
  /// the sink; the caller keeps the raw pointer.
  TraceTrack* add_track(std::uint32_t process, std::string name,
                        std::int64_t card = -1);

  /// Every event across every track, sorted by the deterministic total
  /// order (ts, process, track, seq).
  std::vector<TraceEvent> merged() const;

  std::size_t event_count() const noexcept;
  bool empty() const noexcept { return event_count() == 0; }

  /// Write `{"traceEvents": [...]}` (metadata names + sorted events, ts/dur
  /// in microseconds); returns false on I/O failure.
  bool write_chrome_trace(const char* path) const;

 private:
  struct Process {
    std::uint32_t pid;
    std::string name;
    std::uint32_t next_track = 0;
  };
  struct Track {
    std::string name;
    std::unique_ptr<TraceTrack> track;  ///< stable address for recorders
  };
  std::vector<Process> processes_;
  std::vector<Track> tracks_;
};

}  // namespace aad::telemetry
