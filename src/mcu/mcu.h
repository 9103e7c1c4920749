// The PCI-based microcontroller and its mini-OS (paper §2.3, §2.5).
//
// Owns the ROM, the local RAM, the configuration engine, the Free Frame
// List and the Frame Replacement Table; executes the on-demand algorithm:
//
//   "When the host requests the execution of a particular algorithm ... the
//    micro-controller is responsible for configuring the FPGA with that
//    relevant configuration bit-stream if the function is not already
//    present on the FPGA."
//
// ensure_loaded() is that algorithm verbatim: hit check, Free Frame List
// allocation, eviction loop driven by the Frame Replacement Policy, then
// streaming configuration.
//
// The policy is the paper's LRU — "That algorithm which has the oldest time
// stamp provides extra frames for potential reconfiguration" — read straight
// off the Frame Replacement Table, plus FIFO / LFU / Random baselines and a
// Belady oracle upper bound for experiment E3.  Each is one rule over the
// table's rows (see PolicyKind).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "common/prng.h"
#include "fabric/fabric.h"
#include "mcu/config_engine.h"
#include "mcu/free_frame_list.h"
#include "memory/ram.h"
#include "memory/rom.h"
#include "netlist/lutnetwork.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"

namespace aad::algorithms {
struct KernelSpec;
}  // namespace aad::algorithms

namespace aad::mcu {

/// The Frame Replacement Policy: which resident the eviction loop frees
/// next among those the load may evict (speculative residents always go
/// first, lowest id).
enum class PolicyKind : std::uint8_t {
  kLru = 0,     ///< the paper's policy: oldest last_access
  kFifo = 1,    ///< earliest load (Resident::loaded_at)
  kLfu = 2,     ///< fewest access_count, ties to the oldest last_access
  kRandom = 3,  ///< a fixed-seed draw over the evictable residents
  kBelady = 4,  ///< clairvoyant bound: farthest next use (Mcu::set_future)
};

const char* to_string(PolicyKind kind) noexcept;

/// One resident function: a row of the paper's Frame Replacement Table —
/// "the list of frames occupied by each algorithm present on the FPGA along
/// with a time stamp specifying the last moment at which it was accessed" —
/// plus what the host driver keeps about it while it is resident.
struct Resident {
  std::vector<fabric::FrameIndex> frames;
  /// End of the load's configuration stream; strictly increasing per card
  /// (loads never overlap), so it is also FIFO's order.
  sim::SimTime loaded_at;
  sim::SimTime last_access;  ///< the load, or the latest hit
  std::uint64_t access_count = 0;

  memory::RomRecord record;
  /// The catalog kernel of record.kernel_id, resolved at load (null when
  /// the catalog has none).
  const algorithms::KernelSpec* spec = nullptr;
  /// Netlist functions: the compiled network, re-extracted from the
  /// configuration plane on first use after (re)configuration.
  std::optional<netlist::LutExecutor> executor;
  /// Loaded by a prefetch and not yet demanded (see Mcu::mark_speculative).
  bool speculative = false;
};

/// The table itself, keyed by resident function.
using FrameReplacementTable = std::map<memory::FunctionId, Resident>;

/// The functions a load must not evict: those whose fabric windows are
/// still open at the load's start (see Mcu::load_invoke).
using KeepSet = std::span<const memory::FunctionId>;

struct McuConfig {
  sim::Frequency mcu_clock = sim::Frequency::mhz(66);
  unsigned command_overhead_cycles = 400;   ///< firmware per command
  unsigned eviction_overhead_cycles = 120;  ///< table + free-list updates
  AllocationStrategy allocation = AllocationStrategy::kFirstFitContiguous;
  /// When a contiguous allocation fails despite enough total free frames,
  /// compact the resident functions once before resorting to eviction.
  bool defragment_on_pressure = false;
  /// When the configuration engine rejects a load on a CRC mismatch
  /// (corrupted ROM payload), reprogram the payload from the host driver's
  /// pristine copy and retry the load once — the per-function re-fetch
  /// path.  Off: the load fails with kCorruptData and the caller surfaces
  /// the failure (the server fails the request cleanly).
  bool refetch_on_crc_reject = true;
  PolicyKind policy = PolicyKind::kLru;
  compress::CodecId codec = compress::CodecId::kFrameDelta;
  memory::RomTiming rom_timing;
  memory::RamTiming ram_timing;
  ConfigEngineConfig engine;
  std::size_t rom_capacity = 512 * 1024;
  /// Local RAM bytes: one invocation's input and output must fit together.
  std::size_t ram_capacity = 64 * 1024;
};

struct LoadResult {
  bool hit = false;                 ///< function was already resident
  unsigned frames_configured = 0;
  unsigned evictions = 0;
  sim::SimTime reconfig_time;       ///< zero on hit
};

/// Where a load's reconfig_time went: the configuration pipeline's
/// per-stage sums (ConfigureResult's bounds; the stages overlap, so they add
/// up to more than the pipelined load) and the firmware table update after
/// it.  Zero on hit.
struct LoadStages {
  sim::SimTime rom;
  sim::SimTime decompress;
  sim::SimTime configure;
  sim::SimTime firmware;
};

/// The fabric stage of an invocation: RAM staging in, fabric execution,
/// output collection.
struct ExecutedInvoke {
  Bytes output;
  std::int64_t exec_cycles = 0;
  /// Data-in + data-out RAM staging plus the fabric's execution time for
  /// exec_cycles (Fabric::execution_time).
  sim::SimTime time;
};

/// Snapshot of the device's `mcu.*` registry counters (see
/// telemetry/registry.h — the counters themselves live on the card's
/// telemetry::Registry; this struct is the conventional typed view).
struct McuStats {
  std::uint64_t invocations = 0;
  std::uint64_t config_hits = 0;
  std::uint64_t config_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t frames_configured = 0;
  std::uint64_t frames_skipped = 0;        ///< all skipped port writes
  std::uint64_t frames_skipped_delta = 0;  ///< hash-tracked delta matches
  std::uint64_t allocation_retries = 0;    ///< contiguous-alloc failures
  std::uint64_t defragmentations = 0;
  /// Compressed bytes actually fetched from ROM by loads; under delta
  /// reconfiguration, matched windows' spans are never fetched.
  std::uint64_t compressed_bytes_streamed = 0;
  /// Loads the configuration engine rejected on a CRC mismatch before
  /// programming anything (corrupted bitstreams caught cleanly).
  std::uint64_t crc_rejects = 0;
  /// CRC rejects recovered by reprogramming the ROM payload from the
  /// host's pristine copy (refetch_on_crc_reject).
  std::uint64_t refetches = 0;
  /// Stored functions by the codec they ended up with — under kAuto this
  /// is the record of what the pick chose.
  std::map<compress::CodecId, std::uint64_t> codec_picks;
};

/// What would load_invoke(id) cost right now?  The shared load-cost model:
/// modeled from the record's compressed bytes plus the frames the delta
/// tracker predicts it can skip, through the same pipeline recurrence the
/// configuration engine executes.  Pure query — no simulated time, no
/// state change.
struct LoadEstimate {
  bool known = false;           ///< provisioned in ROM (or resident)
  bool resident = false;        ///< hit: zero cost
  unsigned frames = 0;          ///< footprint
  unsigned frames_matched = 0;  ///< windows predicted to delta-skip
  unsigned evictions = 0;       ///< predicted eviction count
  std::size_t compressed_bytes = 0;
  sim::SimTime time;            ///< modeled load_invoke duration
};

/// Outcome of a mini-OS compaction pass.
struct DefragResult {
  unsigned functions_moved = 0;
  unsigned frames_reconfigured = 0;
  sim::SimTime time;
};

class Mcu {
 public:
  /// `registry` is the card's counter registry; the MCU registers its
  /// `mcu.*` counters there at construction and bumps the handles on the
  /// hot path.  Must outlive the Mcu.
  Mcu(fabric::Fabric& fabric, sim::Scheduler& scheduler,
      telemetry::Registry& registry, const McuConfig& config = {});

  // --- provisioning (host -> ROM, via PCI at the core layer) --------------

  /// Compress `bitstream`'s frame payloads with `codec` (or the configured
  /// default) and store stream + record in ROM.  Advances simulated time by
  /// the ROM programming cost.  CodecId::kAuto trial-compresses with every
  /// real codec and keeps the one whose modeled load is cheapest (measured
  /// compressed size through the engine's pipeline recurrence); near-ties
  /// go to the smallest stream, since ROM capacity is the secondary
  /// objective.  The resolved codec lands in the returned record.
  memory::RomRecord store_function(
      memory::FunctionId id, const bitstream::Bitstream& bitstream,
      std::optional<compress::CodecId> codec = std::nullopt);

  // --- the on-demand path --------------------------------------------------

  /// Make `id` resident (§2.5's algorithm).  Advances simulated time.
  LoadResult ensure_loaded(memory::FunctionId id);

  // --- the staged path (event-driven pipeline) -----------------------------
  // The CoprocessorServer drives every invocation — the synchronous
  // AgileCoprocessor::invoke included — as discrete events, so stages
  // of different requests can overlap (request B's PCI transfer during
  // request A's reconfiguration).  These methods mutate device state
  // immediately — the caller has already reserved the device for the
  // window — but return simulated durations instead of advancing the
  // scheduler.  Calls for the same request must be issued in service
  // order; the configuration-engine stages (decode_invoke + load_invoke)
  // and the fabric stage (execute_invoke) are separable, so the server may
  // stream request B's configuration while request A still owns the fabric
  // — provided B's load is told to keep every function with an open fabric
  // window: a kept row is never a victim, and allocation only ever hands
  // out free frames, so B's frame set is disjoint from theirs.

  /// Firmware command decode — the fixed per-command cost the
  /// microcontroller pays before the on-demand load.  Counts the invocation.
  sim::SimTime decode_invoke();

  /// The on-demand load (§2.5) as of `start`: hit check, allocation,
  /// eviction loop (never choosing a function in `keep`), streaming
  /// configuration.  With a non-empty `keep` the defragment-on-pressure
  /// pass is skipped: compaction would move the kept functions' frames.
  /// `*elapsed` receives the full duration (zero on a hit); `*stages`, when
  /// given, the configuration engine's stage sums (left untouched on a
  /// hit).  A miss must start no earlier than the previous load on this
  /// card ended: the one configuration engine streams one load at a time.
  LoadResult load_invoke(memory::FunctionId id, sim::SimTime start,
                         sim::SimTime* elapsed, LoadStages* stages = nullptr,
                         KeepSet keep = {});

  /// Data-in, fabric execution, output collection, run from the catalog
  /// kernel the record's kernel_id names (algorithms/kernels.h): a netlist
  /// function steps its extracted network through the kernel's driver, or
  /// run_combinational when it has none or the id is outside the catalog; a
  /// behavioral function takes the kernel's software and fabric_cycles, and
  /// throws kInvalidArgument when its id names no behavioral kernel.
  /// Throws kCapacityExceeded when the input alone, or input and output
  /// together, exceed ram_capacity.  Requires `id` resident (load_invoke
  /// was called).
  ExecutedInvoke execute_invoke(memory::FunctionId id, ByteSpan input);

  /// Tag a resident function as speculatively loaded (a prefetch, not yet
  /// demanded).  Speculative residents are the opposite of kept ones: the
  /// eviction loop prefers them as victims, so a demand miss steals their
  /// frames before touching any demand-loaded resident.  The tag clears on
  /// eviction and device reset; the driver clears it explicitly when a
  /// demand hit consumes the prefetch.
  void mark_speculative(memory::FunctionId id);
  /// Drop the speculative tag (no-op when absent).
  void clear_speculative(memory::FunctionId id) {
    if (const auto it = residents_.find(id); it != residents_.end())
      it->second.speculative = false;
  }
  bool is_speculative(memory::FunctionId id) const {
    const auto it = residents_.find(id);
    return it != residents_.end() && it->second.speculative;
  }
  std::size_t speculative_count() const noexcept;

  /// Belady only: the upcoming request sequence.  The oracle's cursor
  /// advances past `future`'s next entry whenever that function hits or
  /// finishes loading.
  void set_future(std::vector<memory::FunctionId> future);

  /// Could load_invoke(id, ..., keep) complete right now?  True on a hit;
  /// on a miss, checks the limit state in which every resident outside
  /// `keep` is evicted — if the allocation strategy cannot place the
  /// function even then (the kept frames fragment the device), an
  /// overlapped load is illegal and the caller must serialize behind the
  /// fabric.  Pure query: no simulated time, no state change.
  bool load_feasible(memory::FunctionId id, KeepSet keep = {}) const;

  /// Could a SPECULATIVE load of `id` be satisfied from free frames,
  /// other speculative residents, and demand residents that look DEAD?
  /// Stricter than load_feasible: a prefetch that would have to evict a
  /// live resident is a bad bet — it trades a probable future hit for a
  /// predicted one — and the pump skips it.  A resident counts as dead
  /// once its idle time reaches both a 1 ms floor and twice its own mean
  /// inter-access gap (from the Frame Replacement Table), so a function
  /// touched every 100us is dead after 1 ms idle while a slow 3ms cycle
  /// stays protected for 6 ms.  (LRU eviction consumes most-idle victims
  /// first, so when this probe passes the subsequent load evicts only the
  /// dead tail; fragmentation can in rare cases force one extra victim.)
  /// Pure query.
  bool prefetch_feasible(memory::FunctionId id, sim::SimTime now) const;

  /// The load-cost model (see LoadEstimate).  Resident functions cost
  /// zero; a miss is modeled from its placement prediction — including the
  /// frames the delta tracker would skip there — through the engine's own
  /// pipeline recurrence, so on an eviction-free miss the estimate equals
  /// load_invoke's elapsed time exactly.
  LoadEstimate estimate_load(memory::FunctionId id) const;
  /// Shorthand: estimate_load(id).time.
  sim::SimTime estimated_load_cost(memory::FunctionId id) const {
    return estimate_load(id).time;
  }

  /// Explicitly evict a resident function (host-directed swap-out).
  /// Advances time, so the card must be quiescent: throws
  /// kInvalidArgument while the scheduler holds a pending event.
  void evict(memory::FunctionId id);

  /// Compact resident functions toward frame 0 by relocating them
  /// (re-streaming each from ROM — legal because bitstreams are
  /// slot-relative).  Leaves one contiguous free region.  Advances time;
  /// like evict, needs a scheduler with no pending event.
  DefragResult defragment();

  /// Drop all resident functions and erase the fabric (device reset).  The
  /// next load may start at any instant.
  void reset_fabric();

  // --- inspection ----------------------------------------------------------
  // is_resident / resident_count are O(log n) / O(1) map probes with no
  // simulated-time cost: the fleet's residency-affinity dispatch polls them
  // on every routing decision, mirroring a host driver that mirrors the
  // card's resident set from completion records.
  bool is_resident(memory::FunctionId id) const {
    return residents_.contains(id);
  }
  std::size_t resident_count() const noexcept { return residents_.size(); }
  std::vector<memory::FunctionId> resident_functions() const;
  /// The frames `id` currently occupies (empty when not resident) — the
  /// frame-set query the overlap legality check and its tests rest on.
  std::vector<fabric::FrameIndex> frames_of(memory::FunctionId id) const;
  const FrameReplacementTable& frame_table() const noexcept {
    return residents_;
  }
  const FreeFrameList& free_frames() const noexcept { return free_list_; }
  const memory::RomImage& rom() const noexcept { return rom_; }
  memory::RomImage& rom() noexcept { return rom_; }
  /// The configuration engine (read-only): the invariant harness audits
  /// its delta frame-hash tracker against the fabric's actual contents.
  const ConfigEngine& engine() const noexcept { return engine_; }
  /// Snapshot of this device's `mcu.*` registry counters.
  McuStats stats() const;
  const McuConfig& config() const noexcept { return config_; }

 private:
  /// What the host driver keeps about each stored function: no ROM bytes,
  /// just metadata to predict and recover loads.
  struct Stored {
    /// Per-window content hashes of the raw payload, matched against the
    /// engine's frame table to predict delta skips before streaming.
    std::vector<std::uint64_t> window_hashes;
    /// CRC-32 of the DECODED image; the engine verifies every load against
    /// it.
    std::uint32_t raw_crc = 0;
    /// The compressed stream as stored: the re-fetch path reprograms the
    /// ROM from it after a CRC reject.
    Bytes pristine;
  };

  /// Placement prediction under delta reconfiguration: either the frames
  /// the free list would hand out, or an in-place upgrade — evict one
  /// same-footprint resident whose frames mostly already match and reuse
  /// its exact frame set.  nullopt when only the eviction loop can place
  /// the function.  Shared by load_invoke and estimate_load so the estimator
  /// predicts what the loader then does.
  struct DeltaPlan {
    std::vector<fabric::FrameIndex> frames;
    std::optional<memory::FunctionId> upgrade_victim;
    std::vector<bool> matched;  ///< per-window delta-skip prediction
    unsigned matched_count = 0;
  };
  std::optional<DeltaPlan> plan_placement(const memory::RomRecord& record,
                                         KeepSet keep) const;
  std::vector<bool> matched_windows(const memory::RomRecord& record,
                                    std::span<const fabric::FrameIndex> targets,
                                    unsigned* count) const;

  // Duration-returning primitives shared by the synchronous shims and the
  // staged path: mutate state, never touch the scheduler.
  sim::SimTime firmware_cost(unsigned cycles) const;
  sim::SimTime evict_cost(memory::FunctionId id);
  DefragResult defragment_at(sim::SimTime start);
  /// The limit state both feasibility probes check: could the allocation
  /// strategy place `record` once every resident that `evictable` accepts
  /// is evicted?
  template <class Evictable>
  bool placeable_after_evicting(const memory::RomRecord& record,
                                Evictable evictable) const;
  /// The eviction loop's next victim among the residents outside `keep`:
  /// the lowest-id speculative one, else the configured policy's pick.
  /// Throws kCapacityExceeded when every resident is kept (or none is
  /// left).
  memory::FunctionId choose_victim(KeepSet keep);
  /// kBelady's cursor: step past the future's next entry when it is `id`.
  void advance_future(memory::FunctionId id) {
    if (future_cursor_ < future_.size() && future_[future_cursor_] == id)
      ++future_cursor_;
  }

  netlist::LutExecutor& executor_for(Resident& fn);

  fabric::Fabric& fabric_;
  sim::Scheduler& scheduler_;
  McuConfig config_;

  memory::RomImage rom_;
  ConfigEngine engine_;
  FreeFrameList free_list_;
  FrameReplacementTable residents_;
  /// When the last completed load on this card ended (zero after a reset).
  sim::SimTime last_load_end_;
  std::map<memory::FunctionId, Stored> stored_;
  /// kRandom's draws (fixed seed, so every run replays).
  Prng victim_rng_;
  /// kBelady's future request sequence and the position of the next one.
  std::vector<memory::FunctionId> future_;
  std::size_t future_cursor_ = 0;

  // Registry handles — the `mcu.*` counter block, registered once at
  // construction; stats() snapshots them back into McuStats.
  struct Counters {
    telemetry::Counter& invocations;
    telemetry::Counter& config_hits;
    telemetry::Counter& config_misses;
    telemetry::Counter& evictions;
    telemetry::Counter& frames_configured;
    telemetry::Counter& frames_skipped;
    telemetry::Counter& frames_skipped_delta;
    telemetry::Counter& allocation_retries;
    telemetry::Counter& defragmentations;
    telemetry::Counter& bytes_streamed;
    telemetry::Counter& crc_rejects;
    telemetry::Counter& refetches;
  };
  Counters counters_;
  /// Codec picks keep their map shape (keyed by enum, not a flat name).
  std::map<compress::CodecId, std::uint64_t> codec_picks_;
};

}  // namespace aad::mcu
