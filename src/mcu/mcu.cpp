#include "mcu/mcu.h"

#include <algorithm>

#include "algorithms/kernels.h"
#include "common/crc32.h"

namespace aad::mcu {

const char* to_string(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kLru: return "lru";
    case PolicyKind::kFifo: return "fifo";
    case PolicyKind::kLfu: return "lfu";
    case PolicyKind::kRandom: return "random";
    case PolicyKind::kBelady: return "belady";
  }
  return "?";
}

namespace {

/// Auto-codec pick: candidates whose modeled load is within this fraction
/// of the fastest compete on compressed size instead.
constexpr double kAutoCodecSlack = 0.05;

/// The random replacement policy's seed: fixed, so every run replays.
constexpr std::uint64_t kPolicySeed = 1;

// A speculative load may claim free frames, other speculative frames, and
// frames of DEAD-looking demand residents — never a live one (evicting one
// trades a probable future hit for a predicted one).  Dead = idle for at
// least this floor and this factor times the resident's own mean
// inter-access gap; see prefetch_feasible.
constexpr sim::SimTime kMinVictimIdle = sim::SimTime::ms(1);
constexpr double kVictimIdleFactor = 2.0;

bool is_kept(KeepSet keep, memory::FunctionId id) {
  return std::ranges::find(keep, id) != keep.end();
}

}  // namespace

Mcu::Mcu(fabric::Fabric& fabric, sim::Scheduler& scheduler,
         telemetry::Registry& registry, const McuConfig& config)
    : fabric_(fabric),
      scheduler_(scheduler),
      config_(config),
      rom_(config.rom_capacity),
      engine_(config.engine),
      free_list_(fabric.geometry().frame_count),
      victim_rng_(kPolicySeed),
      counters_{registry.counter("mcu.invocations"),
                registry.counter("mcu.config_hits"),
                registry.counter("mcu.config_misses"),
                registry.counter("mcu.evictions"),
                registry.counter("mcu.frames_configured"),
                registry.counter("mcu.frames_skipped"),
                registry.counter("mcu.frames_skipped_delta"),
                registry.counter("mcu.allocation_retries"),
                registry.counter("mcu.defragmentations"),
                registry.counter("mcu.compressed_bytes_streamed"),
                registry.counter("mcu.crc_rejects"),
                registry.counter("mcu.refetches")} {}

McuStats Mcu::stats() const {
  McuStats s;
  s.invocations = counters_.invocations.value();
  s.config_hits = counters_.config_hits.value();
  s.config_misses = counters_.config_misses.value();
  s.evictions = counters_.evictions.value();
  s.frames_configured = counters_.frames_configured.value();
  s.frames_skipped = counters_.frames_skipped.value();
  s.frames_skipped_delta = counters_.frames_skipped_delta.value();
  s.allocation_retries = counters_.allocation_retries.value();
  s.defragmentations = counters_.defragmentations.value();
  s.compressed_bytes_streamed = counters_.bytes_streamed.value();
  s.crc_rejects = counters_.crc_rejects.value();
  s.refetches = counters_.refetches.value();
  s.codec_picks = codec_picks_;
  return s;
}

sim::SimTime Mcu::firmware_cost(unsigned cycles) const {
  return config_.mcu_clock.cycles(cycles);
}

memory::RomRecord Mcu::store_function(memory::FunctionId id,
                                      const bitstream::Bitstream& bs,
                                      std::optional<compress::CodecId> codec) {
  const auto& geometry = fabric_.geometry();
  AAD_REQUIRE(bs.info.geometry == geometry,
              "bitstream geometry does not match this device");
  AAD_REQUIRE(bs.frame_count() <= geometry.frame_count,
              "function larger than the whole device");

  const compress::CodecId requested = codec.value_or(config_.codec);
  const Bytes raw = bitstream::pack_frame_payloads(bs);
  compress::CodecId chosen = requested;
  Bytes compressed;
  if (requested == compress::CodecId::kAuto) {
    // Trial-compress with every real codec, model the cold load each would
    // cost through the engine's pipeline recurrence, and keep the fastest.
    // Near-ties (the config port hides cheap decoders) go to the smallest
    // stream: ROM capacity is the secondary objective.
    const unsigned frames = static_cast<unsigned>(bs.frame_count());
    const sim::SimTime frame_time = fabric_.port().frame_time(geometry);
    double best_ns = 0.0;
    std::vector<std::pair<compress::CodecId, Bytes>> trials;
    std::vector<double> times_ns;
    for (const compress::CodecId cand : compress::all_codec_ids()) {
      Bytes c = compress::make_codec(cand, geometry.frame_bytes())
                    ->compress(raw);
      const sim::SimTime t =
          engine_.estimate_time(c.size(), frames, cand, geometry.frame_bytes(),
                                frame_time, config_.rom_timing);
      times_ns.push_back(t.nanoseconds());
      if (trials.empty() || t.nanoseconds() < best_ns)
        best_ns = t.nanoseconds();
      trials.emplace_back(cand, std::move(c));
    }
    const double cutoff = best_ns * (1.0 + kAutoCodecSlack);
    std::size_t pick = 0;
    bool first = true;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (times_ns[i] > cutoff) continue;
      if (first || trials[i].second.size() < trials[pick].second.size()) {
        pick = i;
        first = false;
      }
    }
    chosen = trials[pick].first;
    compressed = std::move(trials[pick].second);
  } else {
    compressed =
        compress::make_codec(chosen, geometry.frame_bytes())->compress(raw);
  }
  ++codec_picks_[chosen];

  // Per-window fingerprints: the driver metadata delta reconfiguration and
  // the load-cost estimator match against the engine's frame table.
  Stored& meta = stored_[id];
  meta.window_hashes.clear();
  const std::size_t frame_bytes = geometry.frame_bytes();
  for (std::size_t off = 0; off + frame_bytes <= raw.size();
       off += frame_bytes)
    meta.window_hashes.push_back(
        window_content_hash(ByteSpan(raw.data() + off, frame_bytes)));

  memory::RomRecord record;
  record.function_id = id;
  record.name = bs.info.name;
  record.kind = bs.info.kind;
  record.codec = chosen;
  record.raw_size = static_cast<std::uint32_t>(raw.size());
  record.frames = static_cast<std::uint16_t>(bs.frame_count());
  record.clb_rows = static_cast<std::uint16_t>(geometry.clb_rows);
  record.input_width = bs.info.input_width;
  record.output_width = bs.info.output_width;
  record.kernel_id = bs.info.kernel_id;

  const memory::RomRecord stored = rom_.store(record, compressed);

  scheduler_.advance(config_.rom_timing.write_time(compressed.size() +
                                                   memory::kRecordBytes));

  // Host-driver recovery metadata: the decoded-image CRC every load is
  // verified against, and the pristine stream the re-fetch path restores
  // after a ROM corruption is caught.
  meta.raw_crc = Crc32::compute(raw);
  meta.pristine = std::move(compressed);
  return stored;
}

std::vector<memory::FunctionId> Mcu::resident_functions() const {
  std::vector<memory::FunctionId> out;
  out.reserve(residents_.size());
  for (const auto& [id, row] : residents_) out.push_back(id);
  return out;
}

std::vector<fabric::FrameIndex> Mcu::frames_of(memory::FunctionId id) const {
  const auto it = residents_.find(id);
  return it != residents_.end() ? it->second.frames
                                : std::vector<fabric::FrameIndex>{};
}

void Mcu::mark_speculative(memory::FunctionId id) {
  const auto it = residents_.find(id);
  AAD_REQUIRE(it != residents_.end(), "marking a non-resident function");
  it->second.speculative = true;
}

std::size_t Mcu::speculative_count() const noexcept {
  return static_cast<std::size_t>(std::ranges::count_if(
      residents_, [](const auto& entry) { return entry.second.speculative; }));
}

void Mcu::set_future(std::vector<memory::FunctionId> future) {
  future_ = std::move(future);
  future_cursor_ = 0;
}

template <class Evictable>
bool Mcu::placeable_after_evicting(const memory::RomRecord& record,
                                   Evictable evictable) const {
  std::vector<bool> blocked(free_list_.frame_count(), false);
  for (const auto& [fid, row] : residents_) {
    if (evictable(fid, row)) continue;
    for (const fabric::FrameIndex frame : row.frames) blocked[frame] = true;
  }
  return placement_possible(record.frames, config_.allocation, blocked);
}

bool Mcu::load_feasible(memory::FunctionId id, KeepSet keep) const {
  if (residents_.contains(id)) return true;  // hit: no frames touched
  const auto record = rom_.lookup(id);
  if (!record) return true;  // let load_invoke raise the provisioning error
  return placeable_after_evicting(
      *record, [keep](memory::FunctionId fid, const Resident&) {
        return !is_kept(keep, fid);
      });
}

bool Mcu::prefetch_feasible(memory::FunctionId id, sim::SimTime now) const {
  if (residents_.contains(id)) return true;  // hit: no frames touched
  const auto record = rom_.lookup(id);
  if (!record) return false;  // speculating on an unprovisioned id: drop it
  // Only speculative residents and dead-looking demand residents count as
  // evictable; live residents keep their frames blocked.
  return placeable_after_evicting(
      *record, [now](memory::FunctionId, const Resident& row) {
        if (row.speculative) return true;
        const sim::SimTime idle = now - row.last_access;
        sim::SimTime threshold = kMinVictimIdle;
        if (row.access_count > 1) {
          const double mean_gap_ps =
              static_cast<double>(
                  (row.last_access - row.loaded_at).picoseconds()) /
              static_cast<double>(row.access_count - 1);
          const auto scaled = sim::SimTime::ps(
              static_cast<std::int64_t>(mean_gap_ps * kVictimIdleFactor));
          if (scaled > threshold) threshold = scaled;
        }
        return idle >= threshold;
      });
}

sim::SimTime Mcu::evict_cost(memory::FunctionId id) {
  const auto it = residents_.find(id);
  AAD_CHECK(it != residents_.end(), "evicting a non-resident function");
  free_list_.release(it->second.frames);
  residents_.erase(it);
  counters_.evictions.add();
  return firmware_cost(config_.eviction_overhead_cycles);
}

void Mcu::evict(memory::FunctionId id) {
  AAD_REQUIRE(residents_.contains(id), "function not resident");
  AAD_REQUIRE(scheduler_.idle(),
              "synchronous evict needs a scheduler with no pending events");
  scheduler_.advance(evict_cost(id));
}

memory::FunctionId Mcu::choose_victim(KeepSet keep) {
  std::vector<memory::FunctionId> candidates;  // ascending id
  for (const auto& [fid, row] : residents_) {
    if (is_kept(keep, fid)) continue;
    // A demand miss steals speculative (prefetched, never demanded) frames
    // before any demand-loaded resident is considered — a wrong guess must
    // never cost real work a better victim.  Lowest id wins.
    if (row.speculative) return fid;
    candidates.push_back(fid);
  }
  if (candidates.empty())
    AAD_FAIL(ErrorCode::kCapacityExceeded,
             residents_.empty()
                 ? "cannot place function even on an empty device "
                   "(fragmentation-free allocation impossible)"
                 : "cannot place function: every resident function is "
                   "kept (caller should have checked load_feasible)");
  if (config_.policy == PolicyKind::kRandom)
    return candidates[victim_rng_.next_below(candidates.size())];
  // The smallest rank is the victim; ties go to the lowest id.
  const auto rank = [this](memory::FunctionId fn) {
    const Resident& row = residents_.at(fn);
    switch (config_.policy) {
      case PolicyKind::kFifo:
        return std::pair{row.loaded_at.picoseconds(), std::int64_t{0}};
      case PolicyKind::kLfu:
        return std::pair{static_cast<std::int64_t>(row.access_count),
                         row.last_access.picoseconds()};
      case PolicyKind::kBelady: {
        // Farthest next use; never used again is farthest of all.
        const auto next = std::find(
            future_.begin() + static_cast<std::ptrdiff_t>(future_cursor_),
            future_.end(), fn);
        return std::pair{-static_cast<std::int64_t>(next - future_.begin()),
                         std::int64_t{0}};
      }
      default:  // kLru
        return std::pair{row.last_access.picoseconds(), std::int64_t{0}};
    }
  };
  return *std::ranges::min_element(candidates, {}, rank);
}

DefragResult Mcu::defragment() {
  AAD_REQUIRE(scheduler_.idle(),
              "synchronous defragment needs a scheduler with no pending "
              "events");
  const DefragResult result = defragment_at(scheduler_.now());
  scheduler_.advance(result.time);
  return result;
}

DefragResult Mcu::defragment_at(sim::SimTime start) {
  DefragResult result;
  sim::SimTime t = start;
  counters_.defragmentations.add();

  // Pack resident functions toward frame 0, in ascending order of their
  // current lowest frame, relocating each by re-streaming it from ROM.
  // Processing left-to-right guarantees a function's target region only
  // overlaps frames that are already free or its own old ones.
  std::vector<std::pair<fabric::FrameIndex, memory::FunctionId>> order;
  for (const auto& [id, row] : residents_)
    order.emplace_back(row.frames.front(), id);
  std::sort(order.begin(), order.end());

  fabric::FrameIndex next = 0;
  for (const auto& [first, id] : order) {
    (void)first;
    Resident& fn = residents_.at(id);
    std::vector<fabric::FrameIndex> target(fn.record.frames);
    for (std::size_t i = 0; i < target.size(); ++i)
      target[i] = next + static_cast<fabric::FrameIndex>(i);
    if (target == fn.frames) {  // already packed
      next += fn.record.frames;
      continue;
    }
    free_list_.release(fn.frames);
    free_list_.claim(target);
    const ConfigureResult cfg =
        engine_.configure(rom_, fn.record, target, fabric_, config_.rom_timing,
                          t, stored_.at(id).raw_crc);
    t += cfg.total;
    counters_.frames_configured.add(cfg.frames_written);
    counters_.frames_skipped.add(cfg.frames_skipped);
    counters_.frames_skipped_delta.add(cfg.frames_skipped_delta);
    counters_.bytes_streamed.add(cfg.bytes_streamed);

    fn.frames = target;
    fn.executor.reset();
    ++result.functions_moved;
    result.frames_reconfigured += cfg.frames_written;
    t += firmware_cost(config_.eviction_overhead_cycles);
    next += fn.record.frames;
  }
  result.time = t - start;
  return result;
}

void Mcu::reset_fabric() {
  residents_.clear();
  last_load_end_ = sim::SimTime::zero();
  free_list_.reset();
  fabric_.erase();
  engine_.reset_tracking();  // the frame table no longer matches the fabric
}

std::vector<bool> Mcu::matched_windows(
    const memory::RomRecord& record,
    std::span<const fabric::FrameIndex> targets, unsigned* count) const {
  std::vector<bool> matched(targets.size(), false);
  if (count) *count = 0;
  if (!config_.engine.delta_reconfig) return matched;
  const auto it = stored_.find(record.function_id);
  if (it == stored_.end() ||
      it->second.window_hashes.size() != targets.size())
    return matched;
  const std::vector<std::uint64_t>& hashes = it->second.window_hashes;
  for (std::size_t w = 0; w < targets.size(); ++w) {
    const std::uint64_t resident = engine_.frame_hash(targets[w]);
    if (resident != 0 && resident == hashes[w]) {
      matched[w] = true;
      if (count) ++*count;
    }
  }
  return matched;
}

std::optional<Mcu::DeltaPlan> Mcu::plan_placement(
    const memory::RomRecord& record, KeepSet keep) const {
  // Candidate A: the frames the free list would hand out.
  const auto free_frames = free_list_.peek(record.frames, config_.allocation);
  unsigned matched_free = 0;
  std::vector<bool> free_mask;
  if (free_frames)
    free_mask = matched_windows(record, *free_frames, &matched_free);

  // Candidate B: in-place upgrade — the same-footprint resident outside
  // `keep` whose frames match the most windows (lowest id wins ties).
  std::optional<memory::FunctionId> victim;
  std::vector<bool> victim_mask;
  std::vector<fabric::FrameIndex> victim_frames;
  unsigned matched_victim = 0;
  for (const auto& [fid, fn] : residents_) {
    if (fid == record.function_id) continue;
    if (is_kept(keep, fid)) continue;
    if (fn.record.frames != record.frames) continue;
    unsigned m = 0;
    auto mask = matched_windows(record, fn.frames, &m);
    if (m > matched_victim) {
      victim = fid;
      matched_victim = m;
      victim_mask = std::move(mask);
      victim_frames = fn.frames;
    }
  }

  // Upgrading costs an eviction, so it must both clear a majority of the
  // footprint and beat whatever the free placement would match.
  const bool upgrade = victim.has_value() &&
                       matched_victim * 2 >= record.frames &&
                       (!free_frames || matched_victim > matched_free);
  DeltaPlan plan;
  if (upgrade) {
    plan.frames = std::move(victim_frames);
    plan.upgrade_victim = victim;
    plan.matched = std::move(victim_mask);
    plan.matched_count = matched_victim;
    return plan;
  }
  if (!free_frames) return std::nullopt;  // only the eviction loop remains
  plan.frames = *free_frames;
  plan.matched = std::move(free_mask);
  plan.matched_count = matched_free;
  return plan;
}

LoadEstimate Mcu::estimate_load(memory::FunctionId id) const {
  LoadEstimate est;
  if (const auto it = residents_.find(id); it != residents_.end()) {
    est.known = true;
    est.resident = true;
    est.frames = it->second.record.frames;
    return est;
  }
  const auto record = rom_.lookup(id);
  if (!record) return est;
  est.known = true;
  est.frames = record->frames;
  est.compressed_bytes = record->compressed_size;

  std::vector<bool> skip;
  if (config_.engine.delta_reconfig) {
    if (const auto plan = plan_placement(*record, {})) {
      skip = plan->matched;
      est.frames_matched = plan->matched_count;
      est.evictions = plan->upgrade_victim ? 1 : 0;
    } else {
      est.evictions = 1;  // eviction loop; match prediction unknown
    }
  } else if (!free_list_.peek(record->frames, config_.allocation)) {
    est.evictions = 1;
  }

  const auto& geometry = fabric_.geometry();
  sim::SimTime t = engine_.estimate_time(
      est.compressed_bytes, record->frames, record->codec,
      geometry.frame_bytes(), fabric_.port().frame_time(geometry),
      config_.rom_timing, skip);
  if (est.evictions)
    t += config_.mcu_clock.cycles(config_.eviction_overhead_cycles *
                                  est.evictions);
  t += config_.mcu_clock.cycles(config_.command_overhead_cycles);
  est.time = t;
  return est;
}

LoadResult Mcu::ensure_loaded(memory::FunctionId id) {
  sim::SimTime elapsed;
  const LoadResult result = load_invoke(id, scheduler_.now(), &elapsed);
  scheduler_.advance(elapsed);
  return result;
}

LoadResult Mcu::load_invoke(memory::FunctionId id, sim::SimTime start,
                            sim::SimTime* elapsed, LoadStages* stages,
                            KeepSet keep) {
  LoadResult result;
  sim::SimTime t = start;
  *elapsed = sim::SimTime::zero();

  if (const auto it = residents_.find(id); it != residents_.end()) {
    // Config hit: just refresh the Frame Replacement Table timestamp.
    result.hit = true;
    it->second.last_access = t;
    ++it->second.access_count;
    advance_future(id);
    counters_.config_hits.add();
    return result;
  }
  AAD_CHECK(start >= last_load_end_,
            "a load starts before the previous load on this card ended");

  const auto record = rom_.lookup(id);
  if (!record)
    AAD_FAIL(ErrorCode::kNotFound,
             "function " + std::to_string(id) + " not provisioned in ROM");
  AAD_REQUIRE(record->frames <= fabric_.geometry().frame_count,
              "function larger than the device");
  counters_.config_misses.add();

  // Delta reconfiguration: prefer an in-place upgrade when a resident
  // same-footprint sibling already holds most of this function's frames —
  // evicting it and reusing its exact frame set turns the load into a
  // stream of just the dirty windows.
  std::optional<std::vector<fabric::FrameIndex>> frames;
  if (config_.engine.delta_reconfig) {
    if (auto plan = plan_placement(*record, keep);
        plan && plan->upgrade_victim) {
      t += evict_cost(*plan->upgrade_victim);
      ++result.evictions;
      free_list_.claim(plan->frames);
      frames = std::move(plan->frames);
    }
  }

  // Allocation / eviction loop (§2.5): "if the Free Frame list is
  // insufficient ... some functions from the FPGA have to be erased".
  bool tried_defrag = false;
  while (!frames) {
    frames = free_list_.allocate(record->frames, config_.allocation);
    if (frames) break;
    counters_.allocation_retries.add();
    // Under pure external fragmentation, one compaction pass can satisfy a
    // contiguous request without evicting anyone.  (Not while anything is
    // kept: compaction would relocate an executing function's frames.)
    if (!tried_defrag && config_.defragment_on_pressure && keep.empty() &&
        free_list_.free_count() >= record->frames) {
      tried_defrag = true;
      t += defragment_at(t).time;
      continue;
    }
    t += evict_cost(choose_victim(keep));
    ++result.evictions;
  }

  // Stream ROM -> decompress -> config port, window by window.  A CRC
  // reject (corrupted ROM payload or decode divergence) leaves the fabric
  // untouched; the driver re-fetches the pristine stream from the host,
  // reprograms the ROM, and retries once before surfacing the failure.
  const sim::SimTime begin = t;
  const Stored& meta = stored_.at(id);
  ConfigureResult cfg;
  for (unsigned attempt = 0;; ++attempt) {
    try {
      cfg = engine_.configure(rom_, *record, *frames, fabric_,
                              config_.rom_timing, t, meta.raw_crc);
      break;
    } catch (const Error& error) {
      if (error.code() != ErrorCode::kCorruptData) {
        free_list_.release(*frames);
        throw;
      }
      counters_.crc_rejects.add();
      if (!config_.refetch_on_crc_reject || attempt >= 1) {
        free_list_.release(*frames);
        throw;
      }
      rom_.rewrite_payload(id, meta.pristine);
      counters_.refetches.add();
      t += config_.rom_timing.write_time(meta.pristine.size());
    }
  }
  t += cfg.total;
  counters_.frames_configured.add(cfg.frames_written);
  counters_.frames_skipped.add(cfg.frames_skipped);
  counters_.frames_skipped_delta.add(cfg.frames_skipped_delta);
  counters_.bytes_streamed.add(cfg.bytes_streamed);

  Resident& row = residents_[id];
  row.frames = std::move(*frames);
  row.loaded_at = t;
  row.last_access = t;
  row.access_count = 1;
  row.record = *record;
  row.spec = algorithms::find_spec(record->kernel_id);
  advance_future(id);

  const sim::SimTime firmware = firmware_cost(config_.command_overhead_cycles);
  t += firmware;
  if (stages)
    *stages = {cfg.rom_bound, cfg.decompress_bound, cfg.config_bound, firmware};
  result.frames_configured = static_cast<unsigned>(cfg.frames_written);
  result.reconfig_time = t - begin;
  *elapsed = t - start;
  last_load_end_ = t;
  return result;
}

netlist::LutExecutor& Mcu::executor_for(Resident& fn) {
  if (!fn.executor)
    fn.executor.emplace(fabric_.extract_network(fn.frames, fn.record.name,
                                                fn.record.input_width,
                                                fn.record.output_width));
  return *fn.executor;
}

sim::SimTime Mcu::decode_invoke() {
  counters_.invocations.add();
  return firmware_cost(config_.command_overhead_cycles);
}

ExecutedInvoke Mcu::execute_invoke(memory::FunctionId id, ByteSpan input) {
  const auto it = residents_.find(id);
  AAD_CHECK(it != residents_.end(),
            "execute_invoke on a non-resident function");
  auto& fn = it->second;
  ExecutedInvoke run;

  // Data-input module: host payload is already in local RAM (PCI layer);
  // stage it to the fabric.  The module streams from RAM to the fabric as
  // it reads.
  if (input.size() > config_.ram_capacity)
    AAD_FAIL(ErrorCode::kCapacityExceeded, "local RAM exhausted");
  sim::SimTime io = config_.ram_timing.access_time(input.size());

  // Execute.
  algorithms::HardwareResult hw;
  if (fn.record.kind == bitstream::FunctionKind::kNetlist) {
    auto& executor = executor_for(fn);
    executor.reset();
    const algorithms::NetlistDriver driver =
        fn.spec != nullptr ? fn.spec->driver : nullptr;
    hw = driver ? driver(executor, input)
                : algorithms::run_combinational(executor, input);
  } else {
    AAD_REQUIRE(fn.spec != nullptr &&
                    fn.spec->kind == bitstream::FunctionKind::kBehavioral,
                "no behavioral model for kernel " +
                    std::to_string(fn.record.kernel_id));
    hw.output = fn.spec->software(input);
    hw.cycles = fn.spec->fabric_cycles(input.size());
  }
  run.exec_cycles = hw.cycles;

  // Output-collection module: stage result through local RAM, beside the
  // input.
  if (input.size() + hw.output.size() > config_.ram_capacity)
    AAD_FAIL(ErrorCode::kCapacityExceeded, "local RAM exhausted");
  io += config_.ram_timing.access_time(hw.output.size());

  run.output = std::move(hw.output);
  run.time = io + fabric_.execution_time(hw.cycles);
  return run;
}

}  // namespace aad::mcu
