// CoprocessorFleet: N independent agile-coprocessor cards behind one
// dispatch point.
//
// One CoprocessorServer pipelines one card, so a single fabric and one PCI
// bus bound throughput.  The fleet shards the load: every card keeps its
// own PCI bus, MCU and fabric (they really are separate PCI devices), but
// all of them are driven by ONE shared discrete-event scheduler, so
// cross-card overlap — four reconfigurations in flight at once, DMA on
// four buses — is simulated faithfully on a single simulated clock.
//
//   host application
//     └─ CoprocessorFleet ── dispatch policy (round-robin / least-queued /
//         │                  residency-affinity)
//         ├─ CoprocessorServer ── AgileCoprocessor   card 0 (own bus+fabric)
//         ├─ CoprocessorServer ── AgileCoprocessor   card 1
//         └─ ...                                     card N-1
//
// Dispatch is deferred to each request's ARRIVAL time, not its submission
// time: an open-loop trace is pre-scheduled long before it runs, and only
// at arrival does the policy see true queue depths and fabric residency.
// The dispatch hop preserves FIFO order among same-timestamp arrivals; the
// one observable difference from a bare CoprocessorServer is an arrival
// whose timestamp exactly collides with an in-flight request's bus event
// (integer-picosecond times make that vanishingly rare).
// That is what makes residency-affinity meaningful — the paper's win is
// skipping reconfiguration on a configuration hit, so the router steers a
// request to a card whose MCU already holds the function's bitstream
// configuration (falling back to least-queued when no card does), trading
// load balance for configuration locality.
//
// Typical use:
//
//   aad::core::FleetConfig fc;
//   fc.cards = 4;
//   fc.policy = aad::core::DispatchPolicy::kResidencyAffinity;
//   aad::core::CoprocessorFleet fleet(fc);
//   fleet.download_all();                 // provision every card's ROM
//   workload::replay(fleet, trace, make_input);   // same surface as a server
//   fleet.run();
//   auto st = fleet.stats();              // fleet-wide + per-card breakdown
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/server.h"
#include "sim/fault.h"
#include "sim/scheduler.h"

namespace aad::core {

/// How the fleet picks a card for an arriving request.
enum class DispatchPolicy {
  kRoundRobin,         ///< cards in cyclic order, ignoring state
  kLeastQueued,        ///< fewest in-flight requests (ties: lowest card)
  kResidencyAffinity,  ///< tiered: a card holding an OPEN batch for the
                       ///< function (CoprocessorServer::open_batch_for — the
                       ///< request joins the batch and shares its one
                       ///< decode+load), else a card where the function is
                       ///< already configured or inbound on an in-flight
                       ///< request (ties: least-queued among them), else —
                       ///< when delta reconfiguration tracks frame contents
                       ///< and FleetConfig::cost_routing is on — the card
                       ///< with the cheapest modeled load among those
                       ///< matching at least one frame
                       ///< (Mcu::estimate_load), else least-queued
};

const char* to_string(DispatchPolicy policy);

/// Request watchdog at the fleet edge.  A dispatched request that has not
/// completed within `timeout` is pulled back (CoprocessorServer::try_cancel
/// — a committed request rides to completion instead) and redispatched
/// after a backoff that doubles per retry, up to `max_retries` extra
/// attempts; exhaustion surfaces the request as failed (FailReason::
/// kTimeout).  `timeout` zero disables the watchdog: the fleet then keeps
/// no per-request state and schedules no timeout events.
struct RetryConfig {
  sim::SimTime timeout;               ///< zero = watchdog disabled
  unsigned max_retries = 2;           ///< redispatches after the first try
  sim::SimTime backoff_base = sim::SimTime::us(100);  ///< first retry delay
};

struct FleetConfig {
  unsigned cards = 2;
  DispatchPolicy policy = DispatchPolicy::kResidencyAffinity;
  /// Applied to every card — the fleet is homogeneous (heterogeneous
  /// fleets are a later PR; the dispatch seam is already here).
  CoprocessorConfig card;
  /// Per-card pipeline knobs: device-queue policy (FIFO / resident-first /
  /// shortest-reconfiguration-first), overlapped reconfiguration, and the
  /// same-function batch mode (ServerConfig::batch).  The fleet dispatch
  /// policy and the per-card policies compose: dispatch picks the card,
  /// the device policy orders that card's ready queue, and the batch mode
  /// coalesces same-function picks into shared-load batches.
  ServerConfig server;
  /// kResidencyAffinity only: enable the cheap-delta tier — when no card
  /// holds (or is loading) the function, route to the card whose delta
  /// tracker predicts the cheapest load instead of merely the shortest
  /// queue.  Inert unless the cards run with engine.delta_reconfig on;
  /// turn it off to compare binary residency-affinity against
  /// cheapest-expected-reconfig routing (bench_codec does).
  bool cost_routing = true;
  /// Declarative fault schedule (sim/fault.h): card deaths + recoveries and
  /// ROM corruptions.  Armed lazily at the FIRST fleet submission — plan
  /// times are relative to that instant, so provisioning time (which varies
  /// with the function set) never shifts the schedule.  An empty plan adds
  /// no events and changes nothing; a plan naming a card the fleet does not
  /// have is rejected at construction.
  sim::FaultPlan faults;
  /// Timeout + bounded-retry watchdog (see RetryConfig).  Disabled (zero
  /// timeout) by default.
  RetryConfig retry;
  /// Host threads driving the simulation.  The fleet runs on one
  /// single-threaded event queue, so 1 is the only accepted value (the
  /// constructor rejects anything else); the field is kept only so existing
  /// configurations that spell it out still compile.
  unsigned threads = 1;
};

/// One card's view of the fleet, captured by CoprocessorFleet::stats().
struct FleetCardStats {
  unsigned card = 0;
  ServerStats server;            ///< this card's pipeline stats
  std::uint64_t dispatched = 0;  ///< requests the policy routed here
  std::size_t queue_depth = 0;   ///< in-flight on this card right now
  std::size_t resident = 0;      ///< functions on this card's fabric now
  bool alive = true;             ///< powered on right now
  std::uint64_t deaths = 0;      ///< times this card died (FaultPlan)
};

/// Fleet-wide statistics: the ServerStats part is
/// CoprocessorServer::pooled_stats over every card (counters summed,
/// records pooled for percentiles and makespan), with two fleet-level
/// corrections:
///   * `submitted` counts fleet tickets plus requests submitted directly to
///     an exposed per-card server, once each however often they were
///     placed; affinity_routed + affinity_fallback counts placements;
///   * `failed` adds the fleet-level terminal failures (no survivor,
///     retries exhausted) to the cards' own (CRC rejects).
/// Every submitted request ends in exactly one of completed/failed.
struct FleetStats : ServerStats {
  /// Residency-affinity accounting (zero under the other policies):
  std::uint64_t prefetch_routed = 0;    ///< sent to the card that PREFETCHED
                                        ///< the config (tier between
                                        ///< open-batch and resident; zero
                                        ///< unless prefetch is enabled)
  std::uint64_t affinity_routed = 0;    ///< sent to a card holding the config
                                        ///< (resident, or inbound in flight)
  std::uint64_t delta_routed = 0;       ///< cheap-delta tier: sent to the
                                        ///< card with the cheapest modeled
                                        ///< load (partial frame match)
  std::uint64_t affinity_fallback = 0;  ///< no card held or was loading it:
                                        ///< least-queued
  // Fault injection + recovery (zero in a fault-free run):
  std::uint64_t deaths = 0;        ///< card power-offs, fleet-wide
  std::uint64_t redispatched = 0;  ///< refugees resubmitted to a survivor
  std::uint64_t retries = 0;       ///< watchdog-driven redispatches
  std::uint64_t timeouts = 0;      ///< watchdog expirations that pulled a
                                   ///< request back (committed ones ride)
  /// Cross-card prefetches handed to a cold sibling because the card the
  /// client's demand was heading to could not place the predicted next
  /// function in free frames.
  std::uint64_t prefetch_cross = 0;
  std::vector<FleetCardStats> cards;    ///< per-card breakdown, by index
};

class CoprocessorFleet {
 public:
  using Completion = CoprocessorServer::Completion;

  explicit CoprocessorFleet(const FleetConfig& config = {});

  // Every card's MCU pipeline holds a reference to scheduler_, so the
  // fleet must stay put.
  CoprocessorFleet(const CoprocessorFleet&) = delete;
  CoprocessorFleet& operator=(const CoprocessorFleet&) = delete;
  CoprocessorFleet(CoprocessorFleet&&) = delete;
  CoprocessorFleet& operator=(CoprocessorFleet&&) = delete;

  // --- provisioning --------------------------------------------------------
  // Every card gets its own copy of the function (separate ROMs).  The
  // downloads share the simulated clock, so card i+1's provisioning starts
  // after card i's finishes — one host, one provisioning thread.

  void download(algorithms::KernelId kernel,
                std::optional<compress::CodecId> codec = std::nullopt);
  void download_bitstream(memory::FunctionId id,
                          const bitstream::Bitstream& bitstream,
                          std::optional<compress::CodecId> codec = std::nullopt);
  void download_all(std::optional<compress::CodecId> codec = std::nullopt);

  // --- submission ----------------------------------------------------------
  // Same surface as CoprocessorServer, so workload::replay drives a fleet
  // unchanged.  The returned id is a fleet-wide ticket (dense submission
  // order), NOT the per-card ServerRequest::id — the card is not chosen
  // until the request arrives.  A function no card's ROM holds throws
  // kNotFound at submit, before any event exists.

  std::uint64_t submit(unsigned client, algorithms::KernelId kernel,
                       Bytes input, Completion done = {});
  std::uint64_t submit_function(unsigned client, memory::FunctionId function,
                                Bytes input, Completion done = {});
  std::uint64_t submit_function_at(sim::SimTime when, unsigned client,
                                   memory::FunctionId function, Bytes input,
                                   Completion done = {});

  // --- event loop ----------------------------------------------------------

  /// Run until every card is idle (closed-loop completions included).
  std::size_t run();
  /// Run events up to `deadline`; in-flight requests stay queued.
  std::size_t run_until(sim::SimTime deadline);

  // --- dispatch ------------------------------------------------------------

  /// The card the policy would route `function` to right now, given current
  /// queue depths and residency — the same decision an arriving request
  /// gets, but WITHOUT advancing any dispatch state (round-robin cursor,
  /// affinity counters), so it is safe to probe from tests and demos.
  unsigned preview_card(memory::FunctionId function) const;

  // --- introspection -------------------------------------------------------

  sim::SimTime now() const noexcept { return scheduler_.now(); }
  unsigned card_count() const noexcept {
    return static_cast<unsigned>(shards_.size());
  }
  DispatchPolicy policy() const noexcept { return policy_; }
  /// Direct access to one shard.  Inspection (mcu(), stats(), bus()) is
  /// always safe; the card's SYNCHRONOUS paths (invoke, preload, evict,
  /// defragment — and provisioning) advance the fleet-shared clock and
  /// execute any pending events on it, so only use them while the fleet is
  /// quiescent (no requests in flight), as download*/the benches do.
  AgileCoprocessor& card(unsigned index);
  CoprocessorServer& server(unsigned index);
  const CoprocessorServer& server(unsigned index) const;
  /// The one event queue every card and the fleet's own dispatch, fault
  /// and watchdog events share.
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  /// Live pending events on the shared queue (scheduler().pending()).
  std::size_t sim_pending() const noexcept { return scheduler_.pending(); }
  /// Submitted but not yet completed, fleet-wide (dispatched or not).
  std::uint64_t in_flight() const;
  /// Fleet-wide totals plus the per-card breakdown.
  FleetStats stats() const;

  // --- telemetry -----------------------------------------------------------

  /// Open Chrome-trace lanes for the whole fleet: one `label` process with
  /// a dispatch/fault lane, plus one process per card ("<label>/card i")
  /// with its pci/engine/fabric/batch lanes (CoprocessorServer::
  /// attach_trace).  Call before running; the sink must outlive the fleet.
  void attach_trace(telemetry::TraceSink& sink,
                    const std::string& label = "fleet");
  /// The fleet's own counter registry (routing tiers, faults, retries);
  /// each card's registry is at card(i).registry().
  telemetry::Registry& registry() noexcept { return registry_; }
  const telemetry::Registry& registry() const noexcept { return registry_; }

  // --- fault injection + recovery ------------------------------------------
  // FleetConfig::faults drives these through scheduled events; they are
  // public so tests and harnesses can inject faults imperatively too.

  /// Power the card off NOW: every pending event on its pipeline is
  /// cancelled, its fabric erased (recovery starts cold), and every request
  /// it held — queued or committed, routed by the fleet or submitted
  /// directly to the card's server — is redispatched to a surviving card
  /// (at-least-once: a committed request's device work is lost and redone;
  /// the redispatch spends one watchdog attempt) or failed with
  /// FailReason::kCardDeath when no card survives.  No-op on an
  /// already-dead card.
  void kill_card(unsigned index);
  /// Power the card back on.  It rejoins dispatch with a cold fabric; the
  /// ROM (host-provisioned flash) survives the outage.
  void revive_card(unsigned index);
  bool card_alive(unsigned index) const {
    AAD_REQUIRE(index < card_count(), "card index out of range");
    return shards_[index].alive;
  }

 private:
  /// The watchdog's state for one request on a card.  Kept only while
  /// RetryConfig::timeout is nonzero, and only until the request leaves the
  /// card (completion, timeout pull-back or card death): the payload itself
  /// always rides with the server, which hands it back through try_cancel /
  /// power_off.
  struct Watch {
    unsigned attempts = 0;     ///< dispatches so far, this one included
    sim::EventId timeout = 0;  ///< the expiry (stale once it has fired)
    Completion done;           ///< the submitter's hook
  };
  struct Shard {
    std::unique_ptr<AgileCoprocessor> card;
    std::unique_ptr<CoprocessorServer> server;
    std::uint64_t dispatched = 0;
    bool alive = true;
    std::uint64_t deaths = 0;
    sim::SimTime death_time;  ///< last power-off (the dead-interval span)
    /// Watched requests on this card, by card-local ServerRequest::id.
    std::unordered_map<std::uint64_t, Watch> watches;
  };

  /// The alive card with the fewest in-flight requests among those for
  /// which `eligible(index)` holds (ties: lowest index); nullopt when none.
  template <typename Eligible>
  std::optional<unsigned> least_in_flight(Eligible eligible) const;
  unsigned least_queued() const;
  unsigned choose(memory::FunctionId function, bool& prefetch_hit,
                  bool& affinity_hit, bool& delta_hit) const;
  /// preview_card + the state updates (cursor, affinity counters).
  unsigned route(memory::FunctionId function);
  /// Can `card` take `function` into FREE frames right now?  (Speculative
  /// loads never evict demand residents.)
  bool prefetch_placeable(unsigned card, memory::FunctionId function) const;
  /// Train the fleet predictor on the dispatch stream and, when the card
  /// the demand went to cannot hold the predicted NEXT function, hand the
  /// speculation to a cold sibling.
  void maybe_cross_prefetch(unsigned client, memory::FunctionId function,
                            unsigned chosen);
  /// Route one placement of a request and hand it to the chosen card's
  /// server; `attempts` counts the placements before this one.  With the
  /// watchdog armed the server gets a 16-byte [this, card] hook and the
  /// submitter's hook waits in the card's watch table.
  void dispatch(unsigned client, memory::FunctionId function, Bytes input,
                Completion done, unsigned attempts);
  /// Schedule dispatch() at `when` for a request between cards (a death
  /// refugee, a timed-out retry).
  void redispatch_at(sim::SimTime when, unsigned client,
                     memory::FunctionId function, Bytes input, Completion done,
                     unsigned attempts);
  bool any_alive() const;
  /// Schedule the fault plan's events, offset by now() (first submission).
  void arm_faults();
  /// A watched request on `card` completed (or failed on the card).
  void on_watched_complete(unsigned card, const ServerRequest& request);
  void on_timeout(unsigned card, std::uint64_t id);
  /// Terminal fleet-level failure: fire `done` with a failed record whose
  /// id and submit_time are those of the request's last placement (0 and
  /// now() when it fails at dispatch, with no card alive).
  void fail(std::uint64_t id, unsigned client, memory::FunctionId function,
            sim::SimTime submit_time, const Completion& done,
            FailReason reason);

  DispatchPolicy policy_;
  /// The cheap-delta routing tier: FleetConfig::cost_routing, and the
  /// cards run with engine.delta_reconfig on.
  bool cost_routing_;
  /// Shared by every card; declared before shards_ so the cards (which
  /// hold references to it) are destroyed first.
  sim::Scheduler scheduler_;
  std::vector<Shard> shards_;
  std::uint64_t next_ticket_ = 0;
  std::uint64_t undispatched_ = 0;  ///< scheduled arrivals not yet routed
  std::uint64_t rr_cursor_ = 0;
  // Speculative prefetch at the fleet edge.  The fleet keeps its OWN
  // predictor trained on the arrival stream it routes (the per-card
  // predictors only see requests after routing splits the stream).
  bool prefetch_enabled_ = false;
  FunctionPredictor predictor_;
  // Fault machinery: the plan is armed at the first submission; the
  // watchdog's per-request state lives in each Shard's watch table.
  bool faults_armed_ = false;
  sim::FaultPlan faults_;
  RetryConfig retry_;

  /// Fleet-level counter registry (the cards each own their own — see
  /// AgileCoprocessor::registry()).
  telemetry::Registry registry_;
  // Registry handles — the `fleet.*` counter block; FleetStats snapshots
  // them (registered at construction, bumped on the dispatch/fault paths).
  struct Counters {
    telemetry::Counter& prefetch_routed;
    telemetry::Counter& affinity_routed;
    telemetry::Counter& delta_routed;
    telemetry::Counter& affinity_fallback;
    telemetry::Counter& prefetch_cross;
    telemetry::Counter& deaths;
    telemetry::Counter& redispatched;
    telemetry::Counter& retries;
    telemetry::Counter& timeouts;
    telemetry::Counter& failed;  ///< fleet-level terminal failures
  };
  Counters counters_;
  /// The fleet's dispatch/fault lane; null until attach_trace.
  telemetry::TraceTrack* fleet_track_ = nullptr;
};

}  // namespace aad::core
