// CoprocessorServer: the event-driven, multi-client front end of the card.
//
// The server drives every request through the discrete-event scheduler as
// five staged events,
//
//   submit ──► PCI data-in ──► decode ──► load ──► execute ──► PCI data-out
//                              └─ config engine ─┘   fabric
//
// with three shared resources arbitrated independently:
//   * the PCI bus           — one transfer at a time (pci::PciBus::acquire),
//   * the config engine     — MCU firmware decode + the on-demand load
//                             (eviction + streaming reconfiguration),
//   * the fabric            — RAM staging + execution, one function at a time.
//
// Because the resources are independent, request B's input DMA overlaps
// request A's reconfiguration or execution, and — when overlap_reconfig is
// on — request B's *reconfiguration* streams through the config engine
// while request A still owns the fabric.  That is legal exactly when B's
// allocated frames are disjoint from every executing function's frames; the
// server guarantees it by passing B's load the set of functions whose
// fabric windows are still open (the keep set of mcu::Mcu::load_invoke), so
// the eviction loop can never touch them, and by serializing behind the
// fabric when mcu::Mcu::load_feasible says the kept frames fragment the
// device too much.  The server orders its device-ready queue by one of three
// DevicePolicy values: FIFO (data-arrival order; bit-exact with the
// pre-split single-resource server when overlap_reconfig is off),
// resident-first and shortest-reconfiguration-first.
//
// On top of that pick, the BatchMode coalesces queued SAME-FUNCTION
// requests into one batch: the batch shares a single firmware decode and a
// single on-demand load, then runs back-to-back fabric windows, so one
// reconfiguration is amortized across every member.  Each member's window
// stays open until it retires, so a later overlapped load keeps the
// batch's function until the last one ends and can never evict it
// mid-batch.  BatchMode::kNone (the default) serves
// every request as a batch of one and is bit-exact with the unbatched
// server; kGreedy drains the queue immediately; kWindowed holds commitment
// up to a horizon so more same-function arrivals can coalesce.
//
// stats() reports per-request latency percentiles, throughput, and the wait
// attribution split into bus/engine/fabric, plus the total reconfiguration
// time hidden behind execution.  One server pipelines one card;
// core::CoprocessorFleet (fleet.h) shards N of these pipelines behind a
// dispatch policy that composes with the per-card device policy.  The
// synchronous AgileCoprocessor::invoke is a one-request run of a default
// server, so this file is the only definition of the stage breakdown.
//
// Typical use:
//
//   aad::core::AgileCoprocessor card;
//   card.download_all();
//   aad::core::ServerConfig sc;
//   sc.device_policy = aad::core::DevicePolicy::kResidentFirst;
//   aad::core::CoprocessorServer server(card, sc);
//   server.submit(/*client=*/0, KernelId::kAes128, input_a);
//   server.submit(/*client=*/1, KernelId::kSha256, input_b);
//   server.run();                       // drain the event queue
//   const auto& r = server.completed()[0];  // r.latency(), r.bus_wait(),
//                                           // r.evict_time(), r.load_stages
//   auto st = server.stats();           // p50/p99 latency, hidden reconfig
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/coprocessor.h"
#include "core/predictor.h"
#include "core/request.h"
#include "telemetry/registry.h"
#include "telemetry/trace_sink.h"

namespace aad::core {

/// Which ready request takes the config engine next.  The reordering
/// policies trade arrival fairness for configuration locality, and both
/// can starve a cold request under a steady stream of resident traffic
/// (classic SJF starvation): they are throughput policies, not fairness
/// policies.
enum class DevicePolicy : std::uint8_t {
  kFifo,                   ///< data-arrival order (bit-exact baseline)
  /// The first request whose function is configured right now, else the
  /// oldest: hits cost only the firmware decode, so letting them jump the
  /// queue keeps the fabric fed while misses wait.
  kResidentFirst,
  /// The smallest reconfiguration estimate, ties to the earliest arrival:
  /// zero when resident, the card's modeled load cost
  /// (Mcu::estimated_load_cost) under delta reconfiguration, and the ROM
  /// frame footprint otherwise.
  kShortestReconfigFirst,
};

const char* to_string(DevicePolicy policy);

/// How the device stage coalesces queued same-function requests behind the
/// device policy's pick (which still chooses WHICH function is served).
enum class BatchMode : std::uint8_t {
  kNone,      ///< batches of one — bit-exact with the unbatched server
  kGreedy,    ///< drain every queued same-function request immediately
  /// Hold commitment up to `window` after the function first became the
  /// pick, betting head-of-line latency against a bigger batch; commit
  /// early once kMaxBatch same-function requests are waiting.  A lone
  /// request commits alone when its window expires — never starved.
  kWindowed,
};

const char* to_string(BatchMode mode);

/// The most requests one batch drains (kGreedy, kWindowed); also the
/// windowed mode's early-commit threshold.
inline constexpr std::size_t kMaxBatch = 16;

struct BatchConfig {
  BatchMode mode = BatchMode::kNone;
  /// kWindowed: how long the device may sit on an uncommitted pick waiting
  /// for more same-function arrivals, measured from the instant the
  /// function first became the pick.  Must not be negative.
  sim::SimTime window = sim::SimTime::us(50);
};

struct LatencySummary {
  sim::SimTime min, mean, p50, p90, p99, max;
  bool operator==(const LatencySummary&) const = default;
};

/// Nearest-rank percentile summary of a latency sample (sorted in place):
/// the q-quantile is the smallest sample value with at least a fraction q
/// of the sample at or below it, i.e. sorted[ceil(q*n) - 1].  A single
/// sample is its own p50/p90/p99; with n < 100 the p99 is simply the max
/// (ceil(0.99*n) == n for 1 <= n <= 100).  Zeroes on an empty sample.
LatencySummary summarize_latencies(std::vector<sim::SimTime> latencies);

/// One server's account of its card.  The request counters, latencies and
/// batch/prefetch totals cover what this server did since it was built; the
/// fields read from the MCU (crc_rejects, refetches, frames_skipped_delta,
/// bytes_streamed, codec_picks) are card-scoped and include whatever ran on
/// the card before it.
struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   ///< successfully (failed ones not counted)
  std::uint64_t failed = 0;      ///< surfaced as failed (CRC reject, ...)
  std::uint64_t cancelled = 0;   ///< pulled back before commit (timeout
                                 ///< redispatch) or orphaned by power_off
  std::uint64_t crc_rejects = 0; ///< card-scoped: MCU corrupted-bitstream
                                 ///< rejects
  std::uint64_t refetches = 0;   ///< card-scoped: pristine-stream ROM
                                 ///< repairs that worked
  sim::SimTime makespan;         ///< first submission -> last completion
  double throughput_rps = 0.0;   ///< completed per simulated second
  LatencySummary latency;        ///< over completed requests
  std::uint64_t config_hits = 0;    ///< completed with the config resident
  std::uint64_t config_misses = 0;  ///< completed after a reconfiguration
  double hit_rate = 0.0;            ///< config_hits / completed
  sim::SimTime total_bus_wait;
  sim::SimTime total_device_wait;    ///< engine + fabric wait, summed
  sim::SimTime total_engine_wait;    ///< queued for the config engine
  sim::SimTime total_fabric_wait;    ///< load done, fabric still busy
  sim::SimTime total_hidden_reconfig;  ///< reconfig overlapped with execution
  std::uint64_t overlapped_loads = 0;  ///< loads that ran during execution
  // Batch amortization (commit-time accounting: counts every committed
  // batch and member, including ones whose PCI-out is still in flight).
  std::uint64_t batches = 0;           ///< device commits (each >= 1 request)
  std::uint64_t coalesced_loads = 0;   ///< members that shared the leader's
                                       ///< decode + load
  double mean_batch_size = 0.0;        ///< members per committed batch
                                       ///< (batches + coalesced_loads over
                                       ///< batches; zero with no batch)
  /// Config-engine occupancy (decode + load) the coalesced members shared
  /// instead of re-paying: the leader's prepare_time, once per follower.
  sim::SimTime total_amortized_reconfig;
  // Load-cost telemetry, read from the card's MCU counters (card-scoped):
  // frames the delta tracker skipped, compressed bytes actually fetched
  // from ROM by loads, and which codec each stored function ended up with
  // (the auto pick's record).
  std::uint64_t frames_skipped_delta = 0;
  std::uint64_t bytes_streamed = 0;
  std::map<compress::CodecId, std::uint64_t> codec_picks;
  // Speculative prefetch (PrefetchConfig).  All zero with prefetch off.
  std::uint64_t prefetch_issued = 0;  ///< speculative loads the pump streamed
  std::uint64_t prefetch_hits = 0;    ///< consumed by a later demand request
  /// Prefetched frames a demand miss stole (or death wiped) before any
  /// demand for the function arrived — the mispredict cost, which is only
  /// idle engine time and cold frames.  issued - hits - wasted prefetches
  /// are still resident awaiting a demand.
  std::uint64_t prefetch_wasted = 0;
  /// Reconfiguration time paid speculatively in idle engine cycles and then
  /// consumed by a demand hit: latency the requester never saw.
  sim::SimTime hidden_reconfig_prefetch;

  bool operator==(const ServerStats&) const = default;
};

/// Speculative configuration prefetch (core/predictor.h).  When the card is
/// fully idle, the server consults a per-client Markov predictor trained on
/// its completion stream and speculatively streams the predicted next
/// configuration into free frames or frames of dead-looking residents
/// (never a live one — Mcu::prefetch_feasible gates that).  The pump only
/// loads on a fully idle card, and the MCU's eviction loop steals
/// speculative frames FIRST the instant a demand miss needs them, so a
/// prefetch can never delay real work.  Default off: the server is
/// bit-exact with the prefetch-free pipeline.
struct PrefetchConfig {
  bool enabled = false;
  PredictorConfig predictor;
};

/// Per-server policy knobs.  The defaults (FIFO + overlap) serve requests
/// in data-arrival order while hiding reconfigurations behind execution;
/// {kFifo, overlap_reconfig = false} reproduces the pre-split
/// single-resource device stage bit-exactly (the regression tests pin this).
struct ServerConfig {
  DevicePolicy device_policy = DevicePolicy::kFifo;
  /// Stream a queued request's configuration while the fabric executes
  /// another (frames permitting).  Off = decode+load+execute serialize per
  /// request, exactly the old one-busy-until-scalar device stage.
  bool overlap_reconfig = true;
  /// Same-function request coalescing (BatchMode).  The default
  /// (BatchMode::kNone) serves every request as a batch of one, bit-exact
  /// with the unbatched server.
  BatchConfig batch;
  /// Speculative next-function prefetch (default off).
  PrefetchConfig prefetch;
};

class CoprocessorServer {
 public:
  /// Completion hook, fired from inside the event loop when the request's
  /// output DMA finishes.  May submit further requests (closed-loop clients).
  using Completion = std::function<void(const ServerRequest&)>;

  /// The card must outlive the server.  Functions are provisioned through
  /// the card as before (download / download_all).  A card has at most one
  /// live server, which owns its `server.*` counters: constructing a
  /// second one (the synchronous invoke included) throws kInvalidArgument
  /// until the first is destroyed.
  explicit CoprocessorServer(AgileCoprocessor& card,
                             const ServerConfig& config = {});
  ~CoprocessorServer();
  CoprocessorServer(const CoprocessorServer&) = delete;
  CoprocessorServer& operator=(const CoprocessorServer&) = delete;

  // --- submission ----------------------------------------------------------

  /// Queue an invocation arriving now.  Returns the request id.
  std::uint64_t submit(unsigned client, algorithms::KernelId kernel,
                       Bytes input, Completion done = {});
  std::uint64_t submit_function(unsigned client, memory::FunctionId function,
                                Bytes input, Completion done = {});
  /// Queue an invocation arriving at absolute time `when` (>= now) —
  /// open-loop traffic.  Every submit throws kNotFound, before queueing
  /// anything, when `function` is not provisioned in the card's ROM.
  std::uint64_t submit_function_at(sim::SimTime when, unsigned client,
                                   memory::FunctionId function, Bytes input,
                                   Completion done = {});

  // --- event loop ----------------------------------------------------------

  /// Run until every submitted request (including any submitted by
  /// completion hooks) has finished.  Returns events executed.
  std::size_t run();
  /// Run events up to `deadline`; in-flight requests stay queued.
  std::size_t run_until(sim::SimTime deadline);

  // --- introspection -------------------------------------------------------

  sim::SimTime now() const noexcept { return card_.now(); }
  std::size_t in_flight() const noexcept { return queue_.size(); }
  const ServerConfig& config() const noexcept { return config_; }
  /// Is any in-flight request for `function` heading to this card whose
  /// load has not yet committed?  The fleet's residency-affinity router
  /// counts an inbound configuration like a resident one: by the time a
  /// new arrival reaches the device stage, the inbound request will have
  /// loaded it (or be queued ahead doing so).  Once the load commits,
  /// Mcu::is_resident carries the signal instead.
  bool function_inbound(memory::FunctionId function) const {
    return inbound_.contains(function);
  }
  /// Is the device stage holding an OPEN batch for `function` — an
  /// uncommitted coalescing opportunity (a windowed hold, or any batch the
  /// fabric refused and will retry) that a new same-function arrival would
  /// still join?  The fleet's residency-affinity router prefers such a
  /// card over a merely-resident one: a request routed here joins the
  /// batch and shares its single decode + load.  Always false under
  /// BatchMode::kNone; under kGreedy only a refused-and-retrying batch is
  /// ever observable (greedy commits the instant it picks).
  bool open_batch_for(memory::FunctionId function) const {
    return hold_anchors_.contains(function);
  }
  /// Did this card prefetch `function` and still hold it, unconsumed?  The
  /// fleet's router prefers such a card over a merely-resident one (the
  /// prefetch was made FOR the predicted demand; consuming it elsewhere
  /// wastes the speculative work).
  bool prefetch_resident(memory::FunctionId function) const {
    return prefetched_.contains(function) &&
           card_.mcu().is_resident(function);
  }
  /// Ask this card to speculatively warm `function` at absolute time
  /// `when` (>= now) — the fleet's cross-card prefetch path.  The request
  /// joins the local candidate queue and obeys the same rules as local
  /// predictions: idle card only, free frames or dead residents only.  No-op
  /// when prefetch is disabled.
  void queue_prefetch_at(sim::SimTime when, memory::FunctionId function);
  /// Candidates + issued-but-unconsumed prefetches (tests/benches).
  std::size_t prefetch_outstanding() const noexcept {
    return prefetch_queue_.size() + prefetched_.size();
  }
  const std::vector<ServerRequest>& completed() const noexcept {
    return completed_;
  }
  /// Latency percentiles, throughput and queueing totals over the requests
  /// completed so far (in_flight() requests are not included):
  /// pooled_stats({this}).
  ServerStats stats() const;
  /// One ServerStats over several servers (CoprocessorFleet::stats() pools
  /// its cards): the counters are summed, and the latency percentiles,
  /// makespan, throughput and rates come from every server's records
  /// pooled, exactly as if one server had completed them all.
  static ServerStats pooled_stats(
      const std::vector<const CoprocessorServer*>& servers);
  AgileCoprocessor& card() noexcept { return card_; }

  // --- telemetry -----------------------------------------------------------

  /// Open this card's span lanes (pci / engine / fabric / batch) as one
  /// trace process named `label`; `card` (when >= 0) stamps every span's
  /// card arg.  Call before running; the sink must outlive the server.
  /// Without a sink every record site is a single null-pointer branch.
  void attach_trace(telemetry::TraceSink& sink, const std::string& label,
                    std::int64_t card = -1);

  // --- fault injection + recovery ------------------------------------------

  /// Everything the dispatcher needs to retry a pulled-back request
  /// elsewhere: the original payload and the caller's completion hook.
  struct CancelledRequest {
    std::uint64_t id = 0;
    unsigned client = 0;
    memory::FunctionId function = 0;
    Bytes input;
    Completion done;
    sim::SimTime submit_time;
  };

  /// Pull an in-flight request back BEFORE its device commit (the fleet's
  /// timeout watchdog).  Pending pipeline events are cancelled, the inbound
  /// marker and any now-stale batch hold anchor are unwound, and the
  /// payload + completion hook are returned for redispatch.  Returns
  /// nullopt — the request rides to completion here — when it is unknown,
  /// already done, or its batch has committed to the engine/fabric.
  std::optional<CancelledRequest> try_cancel(std::uint64_t id);

  /// Card death: cancel every pending event this server scheduled, wipe all
  /// queue state, and erase the fabric (mcu::Mcu::reset_fabric — recovery
  /// starts cold).  EVERY in-flight request — queued or committed — comes
  /// back as a refugee for the dispatcher to redispatch or fail.  Committed
  /// ones may already have produced device-side work that is now lost, so
  /// fleet-level redispatch is at-least-once, never at-most-once.
  std::vector<CancelledRequest> power_off();

 private:
  struct Pending {
    ServerRequest request;
    Bytes input;
    Completion done;
    /// Device commit happened: the engine/fabric windows are booked and the
    /// request can no longer be cancelled (only card death unwinds it).
    bool committed = false;
    /// The one pending pipeline event carrying this request (submit ->
    /// pci-in -> device_ready); unset while it sits in the device queue or
    /// after commit.
    std::optional<sim::EventId> chain_event;

    /// Hand the payload and completion hook back for redispatch.
    CancelledRequest refugee() {
      return {request.id,       request.client, request.function,
              std::move(input), std::move(done), request.submit_time};
    }
  };
  /// A committed fabric window: `function` owns the fabric until `end`, and
  /// any load overlapping that window must keep it.
  struct FabricCommitment {
    sim::SimTime end;
    memory::FunctionId function;
  };
  void begin_pci_in(std::uint64_t id);
  void device_ready(std::uint64_t id);
  /// When the device could next START a request's engine window: the
  /// engine's free instant — or, with overlap off, the fabric's too.
  /// Committing no earlier than this keeps the ready queue reorderable for
  /// as long as the hardware is genuinely busy.
  sim::SimTime device_available() const noexcept {
    return config_.overlap_reconfig ? engine_free_
                                    : std::max(engine_free_, fabric_free_);
  }
  /// Ensure a pump_device wake-up fires no later than `when`.
  void schedule_pump(sim::SimTime when);
  /// Pick the next ready request (DevicePolicy), form its batch
  /// (BatchMode) and commit it to the engine + fabric; reschedules itself
  /// at the device's next-start instant while requests are waiting.
  void pump_device();
  /// Ready requests queued for `function`.
  std::size_t queued_for(memory::FunctionId function) const;
  /// Queued same-function batch mates of `leader` (the device policy's
  /// pick), leader first, the rest in arrival order, capped at kMaxBatch.
  std::vector<std::uint64_t> collect_batch(std::uint64_t leader) const;
  /// Plan the batch's shared engine window (leader decode + load) and its
  /// back-to-back fabric windows, and mutate the MCU accordingly.
  /// Returns false — nothing committed, every member stays queued — when
  /// the fabric is busy and the leader may not take the engine yet
  /// (overlap disabled, or its load cannot avoid the kept frames); the
  /// pump retries once the fabric frees, and can reorder around it.
  bool serve_batch(const std::vector<std::uint64_t>& batch);
  /// One request for `function` has committed or left: drop its inbound
  /// marker.
  void retire_inbound(memory::FunctionId function);
  void begin_pci_out(std::uint64_t id);
  void complete(std::uint64_t id);
  Pending& pending(std::uint64_t id);
  /// Fail the whole batch terminally (corrupted bitstream): every member
  /// completes NOW with failed=true and no engine/fabric time charged.
  void fail_batch(const std::vector<std::uint64_t>& batch, FailReason reason);
  /// schedule_at tagged with this server as the owner, so power_off can
  /// cancel everything this server has in flight without touching other
  /// users of the (possibly shared) scheduler.
  sim::EventId schedule(sim::SimTime when, sim::Scheduler::Action action);
  /// Ensure a pump_prefetch wake-up fires no later than `when`.
  void schedule_prefetch_pump(sim::SimTime when);
  /// Speculatively load the best actionable candidate if the engine is idle
  /// and no demand work is pending.
  void pump_prefetch();
  /// Demand-side prefetch accounting: a demand load for a prefetched
  /// function either consumes the speculation (hit) or finds its frames
  /// already stolen (wasted).
  void settle_prefetch(memory::FunctionId function, bool load_hit);

  AgileCoprocessor& card_;
  ServerConfig config_;
  std::map<std::uint64_t, Pending> queue_;  ///< in-flight, by request id
  std::vector<std::uint64_t> device_queue_;  ///< ready ids, arrival order
  /// In-flight requests whose load has not yet committed, by function.
  std::map<memory::FunctionId, unsigned> inbound_;
  std::uint64_t next_id_ = 0;
  sim::SimTime engine_free_;         ///< config engine busy-until
  sim::SimTime fabric_free_;         ///< fabric busy-until
  std::vector<FabricCommitment> executing_;  ///< fabric windows not yet over
  std::optional<sim::SimTime> pump_wake_;  ///< earliest pending pump event
  /// When each queued function FIRST became the device policy's pick: the
  /// windowed mode's horizon anchors, kept across pick changes (a
  /// non-FIFO device policy can commit other functions mid-hold) and
  /// across fabric refusals, retired when the function's batch commits.
  /// Every entry is an open batch (open_batch_for) a new same-function
  /// arrival would join.
  std::map<memory::FunctionId, sim::SimTime> hold_anchors_;
  std::vector<ServerRequest> completed_;

  // Registry handles — the `server.*` counter block on the card's
  // telemetry::Registry, registered at construction; ServerStats is a
  // snapshot view over them (plus the request records).
  struct Counters {
    telemetry::Counter& submitted;
    telemetry::Counter& cancelled;
    /// Committed device batches; doubles as the card's dense batch-id
    /// allocator (a batch's id is the counter's value at commit).
    telemetry::Counter& batches;
    telemetry::Counter& coalesced_loads;
    telemetry::Counter& amortized_reconfig;  ///< picoseconds
    telemetry::Counter& prefetch_issued;
    telemetry::Counter& prefetch_hits;
    telemetry::Counter& prefetch_wasted;
    telemetry::Counter& hidden_prefetch;     ///< picoseconds
    telemetry::Gauge& queue_depth;  ///< device queue level + high water
  };
  Counters counters_;
  /// The counter-derived ServerStats fields since construction: the
  /// counters' growth past base_, their values when this server was built
  /// (an earlier server or a synchronous invoke on the card counted the
  /// rest).  The card's registry must not be reset() while a server lives.
  ServerStats counts() const;
  ServerStats base_;

  // Chrome-trace lanes (telemetry/trace_sink.h); null until attach_trace.
  telemetry::TraceTrack* pci_track_ = nullptr;
  telemetry::TraceTrack* engine_track_ = nullptr;
  telemetry::TraceTrack* fabric_track_ = nullptr;
  telemetry::TraceTrack* batch_track_ = nullptr;
  // Speculative prefetch (PrefetchConfig; all dormant when disabled).
  /// Per-client next-function Markov table, trained in complete().  Host
  /// driver state: it survives card death (power_off), like the ROM map.
  FunctionPredictor predictor_;
  /// Predicted functions awaiting an idle engine, FIFO, unique.
  std::vector<memory::FunctionId> prefetch_queue_;
  /// Issued speculative loads not yet consumed by a demand, with the
  /// engine occupancy each one paid (the latency a demand hit hides).
  std::map<memory::FunctionId, sim::SimTime> prefetched_;
  std::optional<sim::SimTime> prefetch_wake_;  ///< pending pump wake-up
};

}  // namespace aad::core
