#include "core/server.h"

#include <algorithm>

namespace aad::core {
namespace {

sim::SimTime percentile(const std::vector<sim::SimTime>& sorted, double q) {
  if (sorted.empty()) return sim::SimTime::zero();
  // Nearest-rank: the smallest value with at least q of the mass below it,
  // sorted[ceil(q*n) - 1].  The +0.999999 turns the truncation into a
  // ceiling for any q*n that is not already (within 1e-6 of) an integer,
  // so e.g. p50 of 10 samples is rank 5 and p99 of 10 samples is rank 10
  // (the max — every percentile above 1 - 1/n collapses to the max).
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(q * n + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

}  // namespace

const char* to_string(DevicePolicy policy) {
  switch (policy) {
    case DevicePolicy::kFifo:
      return "fifo";
    case DevicePolicy::kResidentFirst:
      return "resident-first";
    case DevicePolicy::kShortestReconfigFirst:
      return "shortest-reconfig-first";
  }
  return "unknown";
}

const char* to_string(BatchMode mode) {
  switch (mode) {
    case BatchMode::kNone:
      return "none";
    case BatchMode::kGreedy:
      return "greedy";
    case BatchMode::kWindowed:
      return "windowed";
  }
  return "unknown";
}

LatencySummary summarize_latencies(std::vector<sim::SimTime> latencies) {
  LatencySummary summary{};
  if (latencies.empty()) return summary;
  std::sort(latencies.begin(), latencies.end());
  sim::SimTime sum;
  for (const sim::SimTime t : latencies) sum += t;
  summary.min = latencies.front();
  summary.max = latencies.back();
  summary.mean = sim::SimTime::ps(
      sum.picoseconds() / static_cast<std::int64_t>(latencies.size()));
  summary.p50 = percentile(latencies, 0.50);
  summary.p90 = percentile(latencies, 0.90);
  summary.p99 = percentile(latencies, 0.99);
  return summary;
}

CoprocessorServer::CoprocessorServer(AgileCoprocessor& card,
                                     const ServerConfig& config)
    : card_(card),
      config_(config),
      counters_{card.registry().counter("server.submitted"),
                card.registry().counter("server.cancelled"),
                card.registry().counter("server.batches"),
                card.registry().counter("server.coalesced_loads"),
                card.registry().counter("server.amortized_reconfig_ps"),
                card.registry().counter("server.prefetch_issued"),
                card.registry().counter("server.prefetch_hits"),
                card.registry().counter("server.prefetch_wasted"),
                card.registry().counter("server.prefetch_hidden_ps"),
                card.registry().gauge("server.device_queue_depth")},
      predictor_(config.prefetch.predictor) {
  AAD_REQUIRE(!card.served_, "the card already has a live CoprocessorServer");
  AAD_REQUIRE(config.batch.mode != BatchMode::kWindowed ||
                  config.batch.window >= sim::SimTime::zero(),
              "batch window cannot be negative");
  card.served_ = true;
  base_ = counts();
}

CoprocessorServer::~CoprocessorServer() { card_.served_ = false; }

void CoprocessorServer::attach_trace(telemetry::TraceSink& sink,
                                     const std::string& label,
                                     std::int64_t card) {
  const std::uint32_t pid = sink.add_process(label);
  pci_track_ = sink.add_track(pid, "pci", card);
  engine_track_ = sink.add_track(pid, "engine", card);
  fabric_track_ = sink.add_track(pid, "fabric", card);
  batch_track_ = sink.add_track(pid, "batch", card);
}

CoprocessorServer::Pending& CoprocessorServer::pending(std::uint64_t id) {
  const auto it = queue_.find(id);
  AAD_CHECK(it != queue_.end(), "unknown in-flight request id");
  return it->second;
}

std::uint64_t CoprocessorServer::submit(unsigned client,
                                        algorithms::KernelId kernel,
                                        Bytes input, Completion done) {
  return submit_function_at(now(), client, algorithms::function_id(kernel),
                            std::move(input), std::move(done));
}

std::uint64_t CoprocessorServer::submit_function(unsigned client,
                                                 memory::FunctionId function,
                                                 Bytes input, Completion done) {
  return submit_function_at(now(), client, function, std::move(input),
                            std::move(done));
}

std::uint64_t CoprocessorServer::submit_function_at(sim::SimTime when,
                                                    unsigned client,
                                                    memory::FunctionId function,
                                                    Bytes input,
                                                    Completion done) {
  AAD_REQUIRE(when >= now(), "cannot submit a request in the past");
  if (!card_.mcu().rom().contains(function))
    AAD_FAIL(ErrorCode::kNotFound, "function " + std::to_string(function) +
                                       " not provisioned in ROM");
  const std::uint64_t id = next_id_++;
  Pending p;
  p.request.id = id;
  p.request.client = client;
  p.request.function = function;
  p.request.submit_time = when;
  p.input = std::move(input);
  p.done = std::move(done);
  Pending& entry = queue_.emplace(id, std::move(p)).first->second;
  ++inbound_[function];
  counters_.submitted.add();
  entry.chain_event = schedule(when, [this, id] { begin_pci_in(id); });
  return id;
}

sim::EventId CoprocessorServer::schedule(sim::SimTime when,
                                         sim::Scheduler::Action action) {
  return card_.scheduler().schedule_at(when, std::move(action), this);
}

std::optional<CoprocessorServer::CancelledRequest> CoprocessorServer::try_cancel(
    std::uint64_t id) {
  const auto it = queue_.find(id);
  if (it == queue_.end()) return std::nullopt;  // already completed
  Pending& p = it->second;
  if (p.committed) return std::nullopt;  // engine/fabric windows are booked
  const auto queued = std::find(device_queue_.begin(), device_queue_.end(), id);
  if (queued != device_queue_.end()) {
    device_queue_.erase(queued);
    counters_.queue_depth.set(
        static_cast<std::int64_t>(device_queue_.size()));
  } else {
    // Still riding its submit -> pci-in -> device_ready chain.
    AAD_CHECK(p.chain_event.has_value(),
              "uncommitted request has no pending event");
    card_.scheduler().cancel(*p.chain_event);
  }
  retire_inbound(p.request.function);
  // If this was the open batch's last queued member, retire the anchor so
  // open_batch_for stops advertising a batch nobody can join.
  if (hold_anchors_.contains(p.request.function) &&
      queued_for(p.request.function) == 0)
    hold_anchors_.erase(p.request.function);
  CancelledRequest out = p.refugee();
  queue_.erase(it);
  counters_.cancelled.add();
  return out;
}

std::vector<CoprocessorServer::CancelledRequest>
CoprocessorServer::power_off() {
  // Cancel every event this server owns first: a dead card's pipeline must
  // not fire another event (and the cancelled callbacks' captured state is
  // released immediately).
  card_.scheduler().cancel_owned(this);
  std::vector<CancelledRequest> refugees;
  refugees.reserve(queue_.size());
  for (auto& [id, p] : queue_) refugees.push_back(p.refugee());
  counters_.cancelled.add(queue_.size());
  queue_.clear();
  device_queue_.clear();
  counters_.queue_depth.set(0);
  inbound_.clear();
  hold_anchors_.clear();
  executing_.clear();
  pump_wake_.reset();
  // Issued-but-unconsumed prefetches die with the fabric: wasted, like a
  // steal.  The predictor itself is host-driver state and survives.
  counters_.prefetch_wasted.add(prefetched_.size());
  prefetched_.clear();
  prefetch_queue_.clear();
  prefetch_wake_.reset();
  engine_free_ = sim::SimTime::zero();
  fabric_free_ = sim::SimTime::zero();
  card_.mcu().reset_fabric();  // recovery starts with a cold fabric
  return refugees;
}

void CoprocessorServer::begin_pci_in(std::uint64_t id) {
  Pending& p = pending(id);
  pci::PciBus& bus = card_.bus();
  // Command setup (4 doorbell registers + status poll) plus the input DMA
  // occupy the bus as one arbitration unit, exactly as the synchronous
  // driver issues them.
  const sim::SimTime duration =
      card_.pci_command_overhead(4) + bus.dma_to_device(p.input.size());
  const pci::BusGrant grant = bus.acquire(now(), duration);
  p.request.pci_in_start = grant.start;
  p.request.pci_in_time = duration;
  if (pci_track_ != nullptr)
    pci_track_->span("pci", "pci-in", grant.start, grant.end, id,
                     p.request.client, p.request.function);
  p.chain_event = schedule(grant.end, [this, id] { device_ready(id); });
}

void CoprocessorServer::device_ready(std::uint64_t id) {
  Pending& p = pending(id);
  p.chain_event.reset();  // from here the device queue carries the request
  device_queue_.push_back(id);
  counters_.queue_depth.set(static_cast<std::int64_t>(device_queue_.size()));
  pump_device();
}

void CoprocessorServer::schedule_pump(sim::SimTime when) {
  if (pump_wake_ && *pump_wake_ <= when) return;  // already covered
  pump_wake_ = when;
  schedule(when, [this, when] {
    if (pump_wake_ == when) pump_wake_.reset();
    // A superseded (later) wake-up still fires; pump_device just finds the
    // queue empty or the device busy and re-arms as needed.
    pump_device();
  });
}

void CoprocessorServer::pump_device() {
  if (device_queue_.empty()) return;
  if (now() < device_available()) {
    // The device is planned busy; one wake-up at its next-start instant
    // serves the whole queue (each commit reschedules the next).  Waiting
    // until then — rather than committing windows into the future — is
    // what lets the device policy reorder everything still queued.
    schedule_pump(device_available());
    return;
  }

  // The pick decides against the card's configuration state right now —
  // residency at pick time, not at arrival time.
  std::size_t choice = 0;  // FIFO: the queue is already in arrival order
  const mcu::Mcu& mcu = card_.mcu();
  switch (config_.device_policy) {
    case DevicePolicy::kFifo:
      break;
    case DevicePolicy::kResidentFirst:
      for (std::size_t i = 0; i < device_queue_.size(); ++i)
        if (mcu.is_resident(pending(device_queue_[i]).request.function)) {
          choice = i;
          break;
        }
      break;  // all misses: oldest first
    case DevicePolicy::kShortestReconfigFirst: {
      // The key: zero when resident, the real modeled load cost once the
      // card tracks frame contents (delta reconfiguration), else the ROM
      // footprint as picoseconds.  Strict < keeps ties on the earliest
      // arrival.
      const bool cost_model = mcu.config().engine.delta_reconfig;
      sim::SimTime best;
      for (std::size_t i = 0; i < device_queue_.size(); ++i) {
        const memory::FunctionId fn =
            pending(device_queue_[i]).request.function;
        sim::SimTime key;
        if (mcu.is_resident(fn)) {
          key = sim::SimTime::zero();
        } else if (cost_model) {
          key = mcu.estimated_load_cost(fn);
        } else if (const auto record = mcu.rom().lookup(fn)) {
          key = sim::SimTime::ps(record->frames);
        }
        if (i == 0 || key < best) {
          choice = i;
          best = key;
        }
      }
      break;
    }
  }
  const std::uint64_t id = device_queue_[choice];

  // Batch formation: the device policy chose WHICH function is served
  // next; the batch mode decides whether to commit now and how many queued
  // same-function requests ride along (sharing one decode + load).  kNone
  // skips the same-function scans entirely: a batch of one.
  std::uint64_t leader = id;
  memory::FunctionId function = pending(id).request.function;
  std::vector<std::uint64_t> batch{id};
  if (config_.batch.mode != BatchMode::kNone) {
    // The horizon anchor is PER FUNCTION and survives the pick moving
    // elsewhere (a resident-first policy can commit another function
    // mid-hold): the window is measured from the first time the function
    // became the pick, not from its latest re-pick.  The anchor retires
    // when the function's batch commits.
    const sim::SimTime anchor =
        hold_anchors_.try_emplace(function, now()).first->second;
    // Windowed: commit once the batch cannot grow (cap reached) or the
    // horizon has run out — a lone request whose window expires commits
    // as a batch of one, so no request is held forever.
    const sim::SimTime window = config_.batch.window;
    const auto closed = [&](std::size_t queued, sim::SimTime since) {
      return queued >= kMaxBatch || now() - since >= window;
    };
    if (config_.batch.mode == BatchMode::kWindowed &&
        !closed(queued_for(function), anchor)) {
      // The pick holds — but a DIFFERENT anchored function whose own
      // horizon has already run out must not keep waiting for the pick to
      // bounce back to it (a trickle of policy-preferred arrivals each
      // opening a fresh hold would defer it unboundedly).  Serve the
      // oldest-anchored other function whose hold has closed, and
      // otherwise sleep until the EARLIEST horizon over all of them, so
      // each hold expires on its own clock even while another function is
      // the pick.
      bool found = false;
      sim::SimTime wake = anchor + window;
      sim::SimTime alt_anchor;
      for (const auto& [fn, fn_anchor] : hold_anchors_) {
        if (fn == function) continue;
        const std::size_t queued = queued_for(fn);
        if (queued == 0) continue;
        if (!closed(queued, fn_anchor)) {
          wake = std::min(wake, fn_anchor + window);
          continue;
        }
        if (!found || fn_anchor < alt_anchor) {
          found = true;
          function = fn;
          alt_anchor = fn_anchor;
        }
      }
      if (!found) {
        schedule_pump(wake);
        return;
      }
      const auto first = std::find_if(
          device_queue_.begin(), device_queue_.end(), [&](std::uint64_t r) {
            return pending(r).request.function == function;
          });
      AAD_CHECK(first != device_queue_.end(),
                "anchored function has no queued request");
      leader = *first;
    }
    batch = collect_batch(leader);
  }
  if (!serve_batch(batch)) {
    // The batch may not take the engine while the fabric is busy (overlap
    // refused).  Every member stays queued — later arrivals can still be
    // reordered ahead of them — and the pump retries once the fabric
    // frees.  The function's hold anchor persists across the refusal, so
    // a windowed horizon is not restarted and open_batch_for keeps
    // advertising the still-forming batch to the fleet router.
    schedule_pump(fabric_free_);
    return;
  }
  if (const auto anchor = hold_anchors_.find(function);
      anchor != hold_anchors_.end()) {
    if (batch_track_ != nullptr && anchor->second < now())
      batch_track_->span("batch", "batch-hold", anchor->second, now(),
                         /*request=*/-1, /*client=*/-1, function);
    hold_anchors_.erase(anchor);
  }
  for (const std::uint64_t member : batch) std::erase(device_queue_, member);
  counters_.queue_depth.set(static_cast<std::int64_t>(device_queue_.size()));
  pump_device();  // the commit advanced engine_free_; wake up then
}

std::size_t CoprocessorServer::queued_for(memory::FunctionId function) const {
  return static_cast<std::size_t>(std::count_if(
      device_queue_.begin(), device_queue_.end(), [&](std::uint64_t id) {
        return queue_.at(id).request.function == function;
      }));
}

std::vector<std::uint64_t> CoprocessorServer::collect_batch(
    std::uint64_t leader) const {
  std::vector<std::uint64_t> batch{leader};
  const memory::FunctionId function = queue_.at(leader).request.function;
  // Leader first (the device policy's pick), then the other same-function
  // entries in arrival order.  Every policy picks the earliest
  // same-function entry, so the whole batch is in arrival order.
  for (const std::uint64_t ready_id : device_queue_) {
    if (batch.size() >= kMaxBatch) break;
    if (ready_id == leader) continue;
    if (queue_.at(ready_id).request.function == function)
      batch.push_back(ready_id);
  }
  return batch;
}

bool CoprocessorServer::serve_batch(const std::vector<std::uint64_t>& batch) {
  AAD_CHECK(!batch.empty(), "serving an empty batch");
  Pending& p = pending(batch.front());
  const memory::FunctionId function = p.request.function;
  mcu::Mcu& mcu = card_.mcu();
  // The pump only fires once the engine is free, so the engine grant is
  // immediate (or the request defers without committing anything).
  const sim::SimTime engine_start = std::max(now(), engine_free_);

  // Fabric windows that are over by the time the engine starts no longer
  // constrain anything.
  std::erase_if(executing_, [engine_start](const FabricCommitment& c) {
    return c.end <= engine_start;
  });

  // Overlapped reconfiguration: with the fabric still executing, this
  // request's load may stream through the config engine only if it cannot
  // touch any executing function's frames.  A miss is told to keep every
  // function with an open window, which keeps them out of the eviction
  // loop — and, allocation only ever handing out free frames, makes the
  // new frame set disjoint from theirs.  When overlap is off, or even the
  // limit state (everything not kept evicted) cannot place the function,
  // defer: the request waits for the fabric like the pre-split server, but
  // uncommitted, so the device policy can still reorder the queue
  // meanwhile.
  const sim::SimTime fabric_busy_until = fabric_free_;
  if (fabric_busy_until > engine_start && !config_.overlap_reconfig)
    return false;
  std::vector<memory::FunctionId> keep;
  if (!mcu.is_resident(function)) {
    for (const FabricCommitment& c : executing_)
      if (std::ranges::find(keep, c.function) == keep.end())
        keep.push_back(c.function);
    if (!keep.empty() && !mcu.load_feasible(function, keep)) return false;
  }

  p.request.device_start = engine_start;
  p.request.decode_time = mcu.decode_invoke();
  const sim::SimTime load_start = engine_start + p.request.decode_time;
  sim::SimTime load_elapsed;
  try {
    p.request.load = mcu.load_invoke(function, load_start, &load_elapsed,
                                     &p.request.load_stages, keep);
  } catch (const Error& error) {
    if (error.code() != ErrorCode::kCorruptData) throw;
    // Corrupted bitstream the MCU's re-fetch path could not repair: the
    // fabric is untouched (decode-before-program), so nothing to unwind on
    // the device — the whole batch surfaces as failed right now.
    fail_batch(batch, FailReason::kCrcReject);
    return true;  // batch consumed: the pump must drop it from the queue
  }
  if (config_.prefetch.enabled) settle_prefetch(function, p.request.load.hit);

  p.request.prepare_time = p.request.decode_time + load_elapsed;
  const sim::SimTime engine_end = engine_start + p.request.prepare_time;
  engine_free_ = engine_end;
  if (engine_track_ != nullptr) {
    engine_track_->span("engine", "decode", engine_start, load_start,
                        p.request.id, p.request.client, function);
    if (load_elapsed > sim::SimTime::zero())
      engine_track_->span("engine", "load", load_start,
                          load_start + load_elapsed, p.request.id,
                          p.request.client, function);
  }

  // The overlap win: load time that ran while another request's fabric
  // execution was still in flight.
  if (fabric_busy_until > load_start && load_elapsed > sim::SimTime::zero())
    p.request.hidden_reconfig =
        std::min(engine_end, fabric_busy_until) - load_start;

  // Commit every member: the leader (member 0) and the coalesced members
  // behind it, which ride the leader's decode + load with no engine
  // occupancy of their own and run back-to-back fabric windows.
  const std::uint64_t batch_id = counters_.batches.value();
  counters_.batches.add();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const std::uint64_t member_id = batch[i];
    Pending& q = pending(member_id);
    AAD_CHECK(q.request.function == function, "mixed-function batch");
    // The load has committed: from here on Mcu::is_resident carries the
    // routing signal, so the inbound marker retires (were it kept through
    // PCI-out, an eviction by a later overlapped load could leave the fleet
    // routing on a function this card no longer holds or expects).
    retire_inbound(function);
    q.request.batch_id = batch_id;
    q.request.batch_size = static_cast<std::uint32_t>(batch.size());
    if (i > 0) {
      // A member's load "commits" with the leader's: the function is
      // resident for its window, so it is a hit with no engine time.
      q.request.device_start = engine_start;
      q.request.coalesced_load = true;
      q.request.load.hit = true;
      counters_.coalesced_loads.add();
      counters_.amortized_reconfig.add_time(p.request.prepare_time);
    }

    const sim::SimTime fabric_start = std::max(engine_end, fabric_free_);
    q.request.fabric_wait = fabric_start - engine_end;
    q.request.fabric_start = fabric_start;
    mcu::ExecutedInvoke run = mcu.execute_invoke(function, q.input);
    q.request.execute_time = run.time;
    q.request.exec_cycles = run.exec_cycles;
    q.request.output = std::move(run.output);
    // The input payload stays on the Pending: a card death after commit
    // hands it back as a refugee for redispatch (at-least-once semantics).
    q.committed = true;

    fabric_free_ = fabric_start + run.time;
    if (fabric_track_ != nullptr)
      fabric_track_->span("fabric", "execute", fabric_start, fabric_free_,
                          q.request.id, q.request.client, function);
    executing_.push_back({fabric_free_, function});
    schedule(fabric_free_, [this, member_id] { begin_pci_out(member_id); });
  }
  return true;
}

void CoprocessorServer::retire_inbound(memory::FunctionId function) {
  const auto it = inbound_.find(function);
  AAD_CHECK(it != inbound_.end(), "inbound accounting out of sync");
  if (--it->second == 0) inbound_.erase(it);
}

void CoprocessorServer::fail_batch(const std::vector<std::uint64_t>& batch,
                                   FailReason reason) {
  for (const std::uint64_t member : batch) {
    Pending& q = pending(member);
    q.committed = true;  // terminal: a timeout cancel must not race this
    retire_inbound(q.request.function);
    q.request.failed = true;
    q.request.fail_reason = reason;
    if (engine_track_ != nullptr)
      engine_track_->instant("fault", "batch-failed", now(), q.request.id,
                             q.request.client, q.request.function);
    complete(member);
  }
}

void CoprocessorServer::begin_pci_out(std::uint64_t id) {
  Pending& p = pending(id);
  pci::PciBus& bus = card_.bus();
  const sim::SimTime duration =
      bus.dma_from_device(p.request.output.size()) + bus.register_read();
  const pci::BusGrant grant = bus.acquire(now(), duration);
  p.request.pci_out_start = grant.start;
  p.request.pci_out_time = duration;
  if (pci_track_ != nullptr)
    pci_track_->span("pci", "pci-out", grant.start, grant.end, id,
                     p.request.client, p.request.function);
  schedule(grant.end, [this, id] { complete(id); });
}

void CoprocessorServer::complete(std::uint64_t id) {
  const auto it = queue_.find(id);
  AAD_CHECK(it != queue_.end(), "completing an unknown request");
  ServerRequest request = std::move(it->second.request);
  const Completion done = std::move(it->second.done);
  queue_.erase(it);
  request.complete_time = now();
  completed_.push_back(std::move(request));
  if (config_.prefetch.enabled && !completed_.back().failed) {
    // Train on the completion stream (successes only) and queue the
    // client's predicted next function for the idle-engine pump.  Before
    // the hook: the completion precedes the client's next action.
    const ServerRequest& r = completed_.back();
    predictor_.observe(r.client, r.function);
    if (const auto p = predictor_.predict(r.client))
      queue_prefetch_at(now(), p->function);
    // Candidates queued while demand was in flight (the fleet's
    // dispatch-time predictions) wait for the card to drain; this
    // completion may have been the drain.
    if (!prefetch_queue_.empty())
      schedule_prefetch_pump(std::max(now(), device_available()));
  }
  if (done) done(completed_.back());
}

void CoprocessorServer::queue_prefetch_at(sim::SimTime when,
                                          memory::FunctionId function) {
  if (!config_.prefetch.enabled) return;
  AAD_REQUIRE(when >= now(), "cannot prefetch in the past");
  if (prefetched_.contains(function)) return;  // warmed, awaiting demand
  if (std::find(prefetch_queue_.begin(), prefetch_queue_.end(), function) ==
      prefetch_queue_.end())
    prefetch_queue_.push_back(function);
  schedule_prefetch_pump(std::max(when, device_available()));
}

void CoprocessorServer::schedule_prefetch_pump(sim::SimTime when) {
  if (prefetch_wake_ && *prefetch_wake_ <= when) return;  // already covered
  prefetch_wake_ = when;
  schedule(when, [this, when] {
    if (prefetch_wake_ == when) prefetch_wake_.reset();
    pump_prefetch();
  });
}

void CoprocessorServer::pump_prefetch() {
  if (prefetch_queue_.empty()) return;
  // Demand work owns the engine — and a request still in PCI-in or decode
  // will want it within the speculative load's own window, so the pump
  // only runs on a fully idle card.  No re-arm here: every completion
  // re-arms the pump while candidates are waiting (complete()).  Idle
  // means nothing is inbound and every fabric window has ended (each ends
  // before its request's PCI-out), so a speculative load has nothing to
  // keep and the limit state of an empty device always places it.
  if (!queue_.empty()) return;
  if (now() < device_available()) {
    schedule_prefetch_pump(device_available());
    return;
  }

  mcu::Mcu& mcu = card_.mcu();
  while (!prefetch_queue_.empty()) {
    const memory::FunctionId function = prefetch_queue_.front();
    prefetch_queue_.erase(prefetch_queue_.begin());
    if (mcu.is_resident(function)) continue;
    // The modeled delta/codec cost must exist (the function is provisioned
    // and estimable); load_invoke below charges the REAL elapsed time.
    const mcu::LoadEstimate est = mcu.estimate_load(function);
    if (!est.known) continue;
    // Evictions only out of the dead tail: a prefetch that would displace
    // a live resident is a bad bet and is skipped outright.
    if (est.evictions > 0 && !mcu.prefetch_feasible(function, now()))
      continue;
    const sim::SimTime start = now();
    sim::SimTime elapsed;
    try {
      mcu.load_invoke(function, start, &elapsed);
    } catch (const Error& error) {
      if (error.code() != ErrorCode::kCorruptData) throw;
      continue;  // speculation surfaces no failures; drop the guess
    }
    mcu.mark_speculative(function);
    prefetched_.emplace(function, elapsed);
    counters_.prefetch_issued.add();
    if (engine_track_ != nullptr)
      engine_track_->span("prefetch", "prefetch-load", start, start + elapsed,
                          /*request=*/-1, /*client=*/-1, function);
    engine_free_ = start + elapsed;
    break;  // one speculative load per idle window
  }
  if (!prefetch_queue_.empty()) schedule_prefetch_pump(device_available());
}

void CoprocessorServer::settle_prefetch(memory::FunctionId function,
                                        bool load_hit) {
  const auto it = prefetched_.find(function);
  if (it == prefetched_.end()) return;
  if (load_hit) {
    // The demand found the speculative resident in place: the engine time
    // the prefetch paid is latency this requester never saw.
    counters_.prefetch_hits.add();
    counters_.hidden_prefetch.add_time(it->second);
    card_.mcu().clear_speculative(function);
  } else {
    // Stolen before any demand arrived; the demand paid the full load.
    counters_.prefetch_wasted.add();
  }
  prefetched_.erase(it);
}

std::size_t CoprocessorServer::run() { return card_.scheduler().run(); }

std::size_t CoprocessorServer::run_until(sim::SimTime deadline) {
  return card_.scheduler().run_until(deadline);
}

ServerStats CoprocessorServer::stats() const { return pooled_stats({this}); }

ServerStats CoprocessorServer::counts() const {
  ServerStats s;
  s.submitted = counters_.submitted.value() - base_.submitted;
  s.cancelled = counters_.cancelled.value() - base_.cancelled;
  s.batches = counters_.batches.value() - base_.batches;
  s.coalesced_loads = counters_.coalesced_loads.value() - base_.coalesced_loads;
  s.total_amortized_reconfig =
      counters_.amortized_reconfig.time() - base_.total_amortized_reconfig;
  s.prefetch_issued = counters_.prefetch_issued.value() - base_.prefetch_issued;
  s.prefetch_hits = counters_.prefetch_hits.value() - base_.prefetch_hits;
  s.prefetch_wasted = counters_.prefetch_wasted.value() - base_.prefetch_wasted;
  s.hidden_reconfig_prefetch =
      counters_.hidden_prefetch.time() - base_.hidden_reconfig_prefetch;
  return s;
}

ServerStats CoprocessorServer::pooled_stats(
    const std::vector<const CoprocessorServer*>& servers) {
  ServerStats stats;
  std::size_t records = 0;
  for (const CoprocessorServer* server : servers) {
    const ServerStats counted = server->counts();
    stats.submitted += counted.submitted;
    stats.cancelled += counted.cancelled;
    stats.batches += counted.batches;
    stats.coalesced_loads += counted.coalesced_loads;
    stats.total_amortized_reconfig += counted.total_amortized_reconfig;
    stats.prefetch_issued += counted.prefetch_issued;
    stats.prefetch_hits += counted.prefetch_hits;
    stats.prefetch_wasted += counted.prefetch_wasted;
    stats.hidden_reconfig_prefetch += counted.hidden_reconfig_prefetch;
    const mcu::McuStats device = server->card_.mcu().stats();
    stats.frames_skipped_delta += device.frames_skipped_delta;
    stats.bytes_streamed += device.compressed_bytes_streamed;
    for (const auto& [codec, picks] : device.codec_picks)
      stats.codec_picks[codec] += picks;
    stats.crc_rejects += device.crc_rejects;
    stats.refetches += device.refetches;
    records += server->completed_.size();
  }
  if (stats.batches > 0)
    stats.mean_batch_size =
        static_cast<double>(stats.batches + stats.coalesced_loads) /
        static_cast<double>(stats.batches);

  // Latency/throughput/wait/hit statistics cover SUCCESSFUL requests only;
  // failed records are done (their hooks fired) but have no meaningful
  // device timeline.
  sim::SimTime first_submit, last_complete;
  std::vector<sim::SimTime> latencies;
  latencies.reserve(records);
  for (const CoprocessorServer* server : servers)
    for (const ServerRequest& r : server->completed_) {
      if (r.failed) {
        ++stats.failed;
        continue;
      }
      if (latencies.empty()) {
        first_submit = r.submit_time;
        last_complete = r.complete_time;
      }
      first_submit = std::min(first_submit, r.submit_time);
      last_complete = std::max(last_complete, r.complete_time);
      latencies.push_back(r.latency());
      r.load.hit ? ++stats.config_hits : ++stats.config_misses;
      stats.total_bus_wait += r.bus_wait();
      stats.total_device_wait += r.device_wait();
      stats.total_engine_wait += r.engine_wait();
      stats.total_fabric_wait += r.fabric_wait;
      stats.total_hidden_reconfig += r.hidden_reconfig;
      if (r.hidden_reconfig > sim::SimTime::zero()) ++stats.overlapped_loads;
    }
  stats.completed = latencies.size();
  if (stats.completed == 0) return stats;
  stats.hit_rate = static_cast<double>(stats.config_hits) /
                   static_cast<double>(stats.completed);
  stats.makespan = last_complete - first_submit;
  if (stats.makespan > sim::SimTime::zero())
    stats.throughput_rps =
        static_cast<double>(stats.completed) / stats.makespan.seconds();
  stats.latency = summarize_latencies(std::move(latencies));
  return stats;
}

}  // namespace aad::core
