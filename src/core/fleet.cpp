#include "core/fleet.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aad::core {

const char* to_string(DispatchPolicy policy) {
  switch (policy) {
    case DispatchPolicy::kRoundRobin:
      return "round-robin";
    case DispatchPolicy::kLeastQueued:
      return "least-queued";
    case DispatchPolicy::kResidencyAffinity:
      return "residency-affinity";
  }
  return "unknown";
}

CoprocessorFleet::CoprocessorFleet(const FleetConfig& config)
    : policy_(config.policy),
      // The fleet is homogeneous: every card tracks frame contents, or
      // none does and no card can ever match a frame.
      cost_routing_(config.cost_routing &&
                    config.card.mcu.engine.delta_reconfig),
      faults_(config.faults),
      retry_(config.retry),
      counters_{registry_.counter("fleet.prefetch_routed"),
                registry_.counter("fleet.affinity_routed"),
                registry_.counter("fleet.delta_routed"),
                registry_.counter("fleet.affinity_fallback"),
                registry_.counter("fleet.prefetch_cross"),
                registry_.counter("fleet.deaths"),
                registry_.counter("fleet.redispatched"),
                registry_.counter("fleet.retries"),
                registry_.counter("fleet.timeouts"),
                registry_.counter("fleet.failed")} {
  AAD_REQUIRE(config.cards >= 1, "a fleet needs at least one card");
  AAD_REQUIRE(config.threads == 1,
              "the fleet runs on one host thread (FleetConfig::threads "
              "must be 1)");
  for (const sim::CardDeath& death : faults_.deaths)
    AAD_REQUIRE(death.card < config.cards,
                "fault plan kills a card the fleet does not have");
  for (const sim::RomCorruption& c : faults_.corruptions)
    AAD_REQUIRE(c.card < config.cards,
                "fault plan corrupts a card the fleet does not have");
  // The fleet's own predictor sees the UNSPLIT arrival stream at dispatch
  // time; the per-card predictors only see what routing sends them.  Both
  // are inert (and cost nothing) unless the server config enables prefetch.
  prefetch_enabled_ = config.server.prefetch.enabled;
  predictor_ = FunctionPredictor(config.server.prefetch.predictor);
  shards_.reserve(config.cards);
  for (unsigned i = 0; i < config.cards; ++i) {
    Shard shard;
    shard.card = std::make_unique<AgileCoprocessor>(config.card, scheduler_);
    shard.server =
        std::make_unique<CoprocessorServer>(*shard.card, config.server);
    shards_.push_back(std::move(shard));
  }
}

void CoprocessorFleet::download(algorithms::KernelId kernel,
                                std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_) shard.card->download(kernel, codec);
}

void CoprocessorFleet::download_bitstream(
    memory::FunctionId id, const bitstream::Bitstream& bitstream,
    std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_)
    shard.card->download_bitstream(id, bitstream, codec);
}

void CoprocessorFleet::download_all(std::optional<compress::CodecId> codec) {
  for (Shard& shard : shards_) shard.card->download_all(codec);
}

void CoprocessorFleet::attach_trace(telemetry::TraceSink& sink,
                                    const std::string& label) {
  const std::uint32_t pid = sink.add_process(label);
  fleet_track_ = sink.add_track(pid, "dispatch");
  for (unsigned i = 0; i < card_count(); ++i)
    shards_[i].server->attach_trace(sink,
                                    label + "/card " + std::to_string(i),
                                    static_cast<std::int64_t>(i));
}

std::uint64_t CoprocessorFleet::submit(unsigned client,
                                       algorithms::KernelId kernel, Bytes input,
                                       Completion done) {
  return submit_function_at(now(), client, algorithms::function_id(kernel),
                            std::move(input), std::move(done));
}

std::uint64_t CoprocessorFleet::submit_function(unsigned client,
                                                memory::FunctionId function,
                                                Bytes input, Completion done) {
  return submit_function_at(now(), client, function, std::move(input),
                            std::move(done));
}

std::uint64_t CoprocessorFleet::submit_function_at(sim::SimTime when,
                                                   unsigned client,
                                                   memory::FunctionId function,
                                                   Bytes input,
                                                   Completion done) {
  AAD_REQUIRE(when >= now(), "cannot submit a request in the past");
  if (std::none_of(shards_.begin(), shards_.end(), [function](const Shard& s) {
        return s.card->mcu().rom().contains(function);
      }))
    AAD_FAIL(ErrorCode::kNotFound, "function " + std::to_string(function) +
                                       " not provisioned in any card's ROM");
  // Fault plans are armed on the FIRST submission, so the plan's times are
  // relative to when traffic starts, not to how long provisioning took
  // (which varies with the function set).
  arm_faults();
  ++undispatched_;
  // The card is chosen when the request ARRIVES, not now: pre-scheduled
  // open-loop arrivals and closed-loop resubmissions alike get routed
  // against the queue depths and residency of their arrival instant.
  // Unlike redispatch_at's, this closure carries no attempt count: four
  // more bytes move every pending arrival into a larger heap block
  // (perfbench agile_mix host_peak_rss_mb +1.3%).
  scheduler_.schedule_at(
      when, [this, client, function, input = std::move(input),
             done = std::move(done)]() mutable {
        dispatch(client, function, std::move(input), std::move(done), 0);
      });
  return next_ticket_++;
}

void CoprocessorFleet::redispatch_at(sim::SimTime when, unsigned client,
                                     memory::FunctionId function, Bytes input,
                                     Completion done, unsigned attempts) {
  ++undispatched_;
  scheduler_.schedule_at(
      when, [this, client, function, input = std::move(input),
             done = std::move(done), attempts]() mutable {
        dispatch(client, function, std::move(input), std::move(done),
                 attempts);
      });
}

void CoprocessorFleet::dispatch(unsigned client, memory::FunctionId function,
                                Bytes input, Completion done,
                                unsigned attempts) {
  --undispatched_;
  if (!any_alive()) {
    fail(0, client, function, now(), done, FailReason::kCardDeath);
    return;
  }
  const unsigned index = route(function);
  Shard& shard = shards_[index];
  ++shard.dispatched;
  std::uint64_t id = 0;
  if (retry_.timeout > sim::SimTime::zero()) {
    // The server holds the payload and a 16-byte hook (no allocation
    // inside std::function); the submitter's hook waits in the watch.
    id = shard.server->submit_function_at(
        now(), client, function, std::move(input),
        [this, index](const ServerRequest& r) {
          on_watched_complete(index, r);
        });
    const sim::EventId timeout = scheduler_.schedule_at(
        now() + retry_.timeout, [this, index, id] { on_timeout(index, id); });
    shard.watches.emplace(id, Watch{attempts + 1, timeout, std::move(done)});
  } else {
    id = shard.server->submit_function_at(now(), client, function,
                                          std::move(input), std::move(done));
  }
  // Recorded once the card has assigned the request id, so the instant
  // joins that request's spans on the card's lanes.
  if (fleet_track_ != nullptr)
    fleet_track_->instant("dispatch", "dispatch", now(),
                          static_cast<std::int64_t>(id), client, function,
                          index);
  if (prefetch_enabled_) maybe_cross_prefetch(client, function, index);
}

bool CoprocessorFleet::any_alive() const {
  for (const Shard& shard : shards_)
    if (shard.alive) return true;
  return false;
}

void CoprocessorFleet::arm_faults() {
  if (faults_armed_ || faults_.empty()) return;
  faults_armed_ = true;
  const sim::SimTime base = now();
  for (const sim::CardDeath& death : faults_.deaths) {
    scheduler_.schedule_at(base + death.at,
                           [this, card = death.card] { kill_card(card); });
    if (death.recover_at > death.at)
      scheduler_.schedule_at(base + death.recover_at,
                             [this, card = death.card] { revive_card(card); });
  }
  for (const sim::RomCorruption& c : faults_.corruptions) {
    scheduler_.schedule_at(base + c.at, [this, c] {
      shards_[c.card].card->mcu().rom().corrupt_payload(c.function, c.seed,
                                                        c.bit_flips);
    });
  }
}

void CoprocessorFleet::on_watched_complete(unsigned card,
                                           const ServerRequest& request) {
  auto watch = shards_[card].watches.extract(request.id);
  AAD_CHECK(!watch.empty(), "completion for an unwatched request");
  scheduler_.cancel(watch.mapped().timeout);
  // Card-level outcomes — success or failure (a CRC reject the MCU's
  // re-fetch could not repair) — are terminal: a corrupted ROM payload is
  // per-card persistent state, not a transient worth burning retries on.
  if (watch.mapped().done) watch.mapped().done(request);
}

void CoprocessorFleet::on_timeout(unsigned card, std::uint64_t id) {
  Shard& shard = shards_[card];
  auto cancelled = shard.server->try_cancel(id);
  if (!cancelled) {
    // Committed: the engine/fabric windows are booked and the result will
    // arrive — cancelling now would waste real device work.  Let it ride,
    // keeping its watch (and attempt count); only a card death can still
    // unwind it.
    return;
  }
  // cancelled->done is our [this, card] hook; the submitter's is here.
  auto watch = shard.watches.extract(id);
  AAD_CHECK(!watch.empty(), "timeout for an unwatched request");
  const unsigned attempts = watch.mapped().attempts;
  counters_.timeouts.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "timeout", now(),
                          static_cast<std::int64_t>(id), cancelled->client,
                          cancelled->function, card);
  if (attempts > retry_.max_retries) {
    fail(id, cancelled->client, cancelled->function, cancelled->submit_time,
         watch.mapped().done, FailReason::kTimeout);
    return;
  }
  counters_.retries.add();
  const double scale =
      std::pow(retry_.backoff, static_cast<double>(attempts - 1));
  const sim::SimTime delay = sim::SimTime::ps(static_cast<std::int64_t>(
      static_cast<double>(retry_.backoff_base.picoseconds()) * scale));
  redispatch_at(now() + delay, cancelled->client, cancelled->function,
                std::move(cancelled->input), std::move(watch.mapped().done),
                attempts);
}

void CoprocessorFleet::fail(std::uint64_t id, unsigned client,
                            memory::FunctionId function,
                            sim::SimTime submit_time, const Completion& done,
                            FailReason reason) {
  counters_.failed.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "request-failed", now(),
                          static_cast<std::int64_t>(id), client, function);
  ServerRequest failed;
  failed.id = id;
  failed.client = client;
  failed.function = function;
  failed.submit_time = submit_time;
  failed.complete_time = now();
  failed.failed = true;
  failed.fail_reason = reason;
  if (done) done(failed);
}

void CoprocessorFleet::kill_card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  Shard& shard = shards_[index];
  if (!shard.alive) return;
  shard.alive = false;
  ++shard.deaths;
  shard.death_time = now();
  counters_.deaths.add();
  if (fleet_track_ != nullptr)
    fleet_track_->instant("fault", "card-death", now(), /*request=*/-1,
                          /*client=*/-1, /*function=*/-1, index);
  std::vector<CoprocessorServer::CancelledRequest> refugees =
      shard.server->power_off();
  // Every watched request is a refugee: disarm the timeouts and take the
  // attempt counts and submitters' hooks with us.
  std::unordered_map<std::uint64_t, Watch> watches = std::move(shard.watches);
  shard.watches.clear();
  for (const auto& [id, watch] : watches) scheduler_.cancel(watch.timeout);
  const bool survivors = any_alive();
  for (auto& refugee : refugees) {
    unsigned attempts = 0;
    Completion done = std::move(refugee.done);
    if (const auto it = watches.find(refugee.id); it != watches.end()) {
      attempts = it->second.attempts;
      done = std::move(it->second.done);  // drops our [this, card] hook
    }
    if (survivors) {
      counters_.redispatched.add();
      redispatch_at(now(), refugee.client, refugee.function,
                    std::move(refugee.input), std::move(done), attempts);
    } else {
      fail(refugee.id, refugee.client, refugee.function, refugee.submit_time,
           done, FailReason::kCardDeath);
    }
  }
}

void CoprocessorFleet::revive_card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  // power_off already erased the fabric; the card rejoins dispatch cold.
  // The ROM — host-programmed flash — survived the outage.
  Shard& shard = shards_[index];
  if (!shard.alive && fleet_track_ != nullptr)
    fleet_track_->span("fault", "dead", shard.death_time, now(),
                       /*request=*/-1, /*client=*/-1, /*function=*/-1, index);
  shard.alive = true;
}

template <typename Eligible>
std::optional<unsigned> CoprocessorFleet::least_in_flight(
    Eligible eligible) const {
  // Lowest ALIVE card index among the minima keeps ties deterministic.
  std::optional<unsigned> best;
  for (unsigned i = 0; i < card_count(); ++i) {
    if (!shards_[i].alive || !eligible(i)) continue;
    if (!best ||
        shards_[i].server->in_flight() < shards_[*best].server->in_flight())
      best = i;
  }
  return best;
}

unsigned CoprocessorFleet::least_queued() const {
  // Callers never route to a dead card (dispatch fails the request up
  // front when nothing is alive, so the fallback only applies then).
  return least_in_flight([](unsigned) { return true; }).value_or(0);
}

unsigned CoprocessorFleet::choose(memory::FunctionId function,
                                  bool& prefetch_hit, bool& affinity_hit,
                                  bool& delta_hit) const {
  prefetch_hit = false;
  affinity_hit = false;
  delta_hit = false;
  switch (policy_) {
    case DispatchPolicy::kRoundRobin: {
      // First alive card at or after the cursor (all alive: the cursor
      // itself, exactly the fault-free behavior).
      for (unsigned k = 0; k < card_count(); ++k) {
        const unsigned i =
            static_cast<unsigned>((rr_cursor_ + k) % shards_.size());
        if (shards_[i].alive) return i;
      }
      return static_cast<unsigned>(rr_cursor_ % shards_.size());
    }
    case DispatchPolicy::kLeastQueued:
      return least_queued();
    case DispatchPolicy::kResidencyAffinity: {
      // Strongest signal first: a card whose device stage is holding an
      // OPEN batch for this function (a windowed batch waiting for more
      // same-function arrivals) — a request routed there joins the batch
      // and shares its single decode + load, paying no reconfiguration at
      // all.
      if (const auto card = least_in_flight([&](unsigned i) {
            return shards_[i].server->open_batch_for(function);
          })) {
        affinity_hit = true;
        return *card;
      }
      // Second: a card that PREFETCHED this function and still holds the
      // speculation unconsumed.  Stronger than mere residency — the frames
      // were loaded FOR this demand, and consuming the speculation here
      // both scores the guaranteed hit and frees the speculative marker
      // (an unconsumed marker leaves the frames first in line for
      // stealing).  Inert unless prefetch is enabled.
      if (prefetch_enabled_) {
        if (const auto card = least_in_flight([&](unsigned i) {
              return shards_[i].server->prefetch_resident(function);
            })) {
          prefetch_hit = true;
          return *card;
        }
      }
      // Otherwise, among the cards already holding the configuration — or
      // with an in-flight request about to load it (function_inbound) —
      // take the least loaded (lowest index on ties).  A queued request
      // ahead of us could still evict the function, but
      // residency-at-arrival is the cheap, driver-visible signal —
      // mispredictions just cost one reconfiguration.
      if (const auto card = least_in_flight([&](unsigned i) {
            return shards_[i].card->mcu().is_resident(function) ||
                   shards_[i].server->function_inbound(function);
          })) {
        affinity_hit = true;
        return *card;
      }
      // Third tier: no card holds the function, but under delta
      // reconfiguration a cold load is not uniformly expensive — a card
      // whose fabric still carries frames matching the function's image
      // (an earlier variant, an evicted copy) reloads only the dirty
      // frames.  Route to the cheapest modeled load among cards matching
      // at least one frame (ties: least in flight, then lowest index).
      if (cost_routing_) {
        bool found = false;
        unsigned best = 0;
        sim::SimTime best_cost;
        for (unsigned i = 0; i < card_count(); ++i) {
          if (!shards_[i].alive) continue;
          const mcu::LoadEstimate est =
              shards_[i].card->mcu().estimate_load(function);
          if (!est.known || est.frames_matched == 0) continue;
          if (!found || est.time < best_cost ||
              (est.time == best_cost &&
               shards_[i].server->in_flight() <
                   shards_[best].server->in_flight())) {
            best = i;
            best_cost = est.time;
            found = true;
          }
        }
        if (found) {
          delta_hit = true;
          return best;
        }
      }
      return least_queued();
    }
  }
  return 0;
}

unsigned CoprocessorFleet::preview_card(memory::FunctionId function) const {
  bool prefetch_hit = false, affinity_hit = false, delta_hit = false;
  return choose(function, prefetch_hit, affinity_hit, delta_hit);
}

unsigned CoprocessorFleet::route(memory::FunctionId function) {
  bool prefetch_hit = false, affinity_hit = false, delta_hit = false;
  const unsigned card = choose(function, prefetch_hit, affinity_hit, delta_hit);
  if (policy_ == DispatchPolicy::kRoundRobin) {
    ++rr_cursor_;
  } else if (policy_ == DispatchPolicy::kResidencyAffinity) {
    if (prefetch_hit)
      counters_.prefetch_routed.add();
    else if (affinity_hit)
      counters_.affinity_routed.add();
    else if (delta_hit)
      counters_.delta_routed.add();
    else
      counters_.affinity_fallback.add();
  }
  return card;
}

bool CoprocessorFleet::prefetch_placeable(unsigned card,
                                          memory::FunctionId function) const {
  const mcu::Mcu& mcu = shards_[card].card->mcu();
  const mcu::LoadEstimate est = mcu.estimate_load(function);
  return est.known && !est.resident && est.evictions == 0;
}

void CoprocessorFleet::maybe_cross_prefetch(unsigned client,
                                            memory::FunctionId function,
                                            unsigned chosen) {
  // Train on the routed stream, at the dispatch instant.
  predictor_.observe(client, function);
  if (card_count() < 2) return;  // nothing to hand the speculation to
  const auto prediction = predictor_.predict(client);
  if (!prediction) return;
  const memory::FunctionId next = prediction->function;
  if (next == function) return;
  for (const Shard& shard : shards_) {
    if (!shard.alive) continue;
    if (shard.card->mcu().is_resident(next) ||
        shard.server->function_inbound(next) ||
        shard.server->prefetch_resident(next))
      return;  // already warm, or warming, somewhere
  }
  // Placement ladder.  The prefetched routing tier sends the eventual
  // demand to WHICHEVER card warmed the function, so placement is free to
  // chase the cheapest home: the demand's own card when it has free frames
  // (locality — the client's next request heads there anyway), else a
  // sibling with free frames (the cross-card path: a cold card warms what
  // the hot card cannot hold), else the demand's card again and its pump
  // may evict idle residents.
  unsigned target = chosen;
  if (!shards_[chosen].alive || !prefetch_placeable(chosen, next)) {
    if (const auto sibling = least_in_flight([&](unsigned i) {
          return i != chosen && prefetch_placeable(i, next);
        })) {
      counters_.prefetch_cross.add();
      target = *sibling;
    } else if (!shards_[chosen].alive) {
      return;
    }
  }
  shards_[target].server->queue_prefetch_at(now(), next);
}

std::size_t CoprocessorFleet::run() { return scheduler_.run(); }

std::size_t CoprocessorFleet::run_until(sim::SimTime deadline) {
  return scheduler_.run_until(deadline);
}

AgileCoprocessor& CoprocessorFleet::card(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].card;
}

CoprocessorServer& CoprocessorFleet::server(unsigned index) {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].server;
}

const CoprocessorServer& CoprocessorFleet::server(unsigned index) const {
  AAD_REQUIRE(index < card_count(), "card index out of range");
  return *shards_[index].server;
}

std::uint64_t CoprocessorFleet::in_flight() const {
  // Sum live counts rather than subtracting completions from next_ticket_:
  // requests submitted directly through a card's server (the servers are
  // exposed) would otherwise underflow the difference.
  std::uint64_t in_flight = undispatched_;
  for (const Shard& shard : shards_) in_flight += shard.server->in_flight();
  return in_flight;
}

FleetStats CoprocessorFleet::stats() const {
  std::vector<const CoprocessorServer*> servers;
  servers.reserve(shards_.size());
  std::uint64_t dispatched = 0;
  for (const Shard& shard : shards_) {
    servers.push_back(shard.server.get());
    dispatched += shard.dispatched;
  }
  FleetStats stats;
  static_cast<ServerStats&>(stats) = CoprocessorServer::pooled_stats(servers);
  // Every placement counts once on its card's server; what the fleet did
  // not dispatch there was submitted to that server directly.
  stats.submitted = next_ticket_ + (stats.submitted - dispatched);
  stats.failed += counters_.failed.value();
  stats.prefetch_routed = counters_.prefetch_routed.value();
  stats.affinity_routed = counters_.affinity_routed.value();
  stats.delta_routed = counters_.delta_routed.value();
  stats.affinity_fallback = counters_.affinity_fallback.value();
  stats.deaths = counters_.deaths.value();
  stats.redispatched = counters_.redispatched.value();
  stats.retries = counters_.retries.value();
  stats.timeouts = counters_.timeouts.value();
  stats.prefetch_cross = counters_.prefetch_cross.value();
  stats.cards.reserve(shards_.size());
  for (unsigned i = 0; i < card_count(); ++i) {
    const Shard& shard = shards_[i];
    stats.cards.push_back({i, shard.server->stats(), shard.dispatched,
                           shard.server->in_flight(),
                           shard.card->mcu().resident_count(), shard.alive,
                           shard.deaths});
  }
  return stats;
}

}  // namespace aad::core
