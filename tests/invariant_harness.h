// Property-based invariant harness for fault injection + recovery.
//
// One harness case = one seeded (fault plan, workload, fleet configuration)
// triple driven to completion, followed by a sweep of system-wide
// invariants that must hold for EVERY seed, not just the hand-picked
// regression scenarios:
//
//   1. Conservation — every submitted request completes or fails exactly
//      once (its hook fires once), ok + failed == submitted, and the fleet
//      drains (in_flight() == 0, scheduler idle).
//   2. Pin hygiene — after the drain, no card holds a pin reference
//      (PinGuard/batch unpins balanced even across deaths and cancels).
//   3. Liveness isolation — no completed request's fabric window overlaps
//      a death interval of the card it ran on (a dead card does no work).
//   4. Delta-tracker consistency — every tracked frame hash of a resident
//      function matches a readback of the fabric words it claims to
//      describe, across deaths (reset_fabric clears tracking) and
//      recoveries (cold fabric, fresh tracking).
//   5. Frame ownership — on every card the resident functions' frame sets
//      are pairwise disjoint, none of their frames is on the Free Frame
//      List, and free + owned frames add up to the device (an eviction or
//      reset that forgets the free list leaks frames).
//   6. Determinism — the same seed produces a byte-identical outcome
//      digest (compare InvariantHarness::digest() across two runs).
//
// Tests assert check() returns no violations across many seeds and policy
// combinations; the mutation tests assert a deliberately broken run (a
// doctored completion count, a leaked pin) is CAUGHT, so the harness can
// never silently rot into a tautology.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "algorithms/kernels.h"
#include "core/fleet.h"
#include "sim/fault.h"
#include "workload/multiclient.h"

namespace aad::harness {

struct HarnessConfig {
  std::uint64_t seed = 1;

  // Fleet shape.
  unsigned cards = 4;
  unsigned frames = 48;  ///< per card (fabric geometry)
  mcu::PolicyKind policy = mcu::PolicyKind::kLru;  ///< per card
  core::DispatchPolicy dispatch = core::DispatchPolicy::kResidencyAffinity;
  core::DevicePolicy device = core::DevicePolicy::kFifo;
  core::BatchConfig batch;  ///< kNone default: batches of one
  bool overlap_reconfig = true;
  bool delta_reconfig = false;

  // Fault plan (sim/fault.h generator knobs).
  double death_rate_per_ms = 0.02;
  sim::SimTime mean_downtime = sim::SimTime::ms(1);
  double corruption_rate_per_ms = 0.0;
  sim::SimTime fault_horizon = sim::SimTime::ms(20);

  // Watchdog (zero timeout = disabled).
  sim::SimTime timeout;
  unsigned max_retries = 2;

  // Speculative prefetch (core::PrefetchConfig).  Off by default so every
  // pre-existing sweep is unchanged; the prefetch sweeps turn it on to
  // prove speculative pins unwind like demand pins across deaths.
  bool prefetch = false;
  double prefetch_confidence = 0.35;

  // Workload (bursty open-loop traffic over the full kernel bank).
  unsigned clients = 6;
  std::size_t bursts = 3;
  std::size_t burst_size = 4;
  double zipf_s = 0.9;
};

class InvariantHarness {
 public:
  explicit InvariantHarness(const HarnessConfig& config)
      : config_(config),
        plan_(make_plan(config)),
        fleet_(make_fleet_config(config, plan_)) {}

  /// Provision every card, submit the seeded workload, drain the fleet.
  void run() {
    fleet_.download_all();
    base_ = fleet_.now();  // fault-plan times are relative to first submit
    const workload::MultiClientTrace trace = make_trace(config_);
    for (const auto& client : trace.clients) {
      for (std::size_t k = 0; k < client.requests.size(); ++k) {
        const workload::ClientRequest& request = client.requests[k];
        const std::size_t index = completions_.size();
        completions_.push_back(0);
        fleet_.submit_function_at(
            base_ + request.offset, client.client, request.function,
            algorithms::bank_input(request.function, request.payload_blocks,
                                   index),
            [this, index](const core::ServerRequest& r) {
              ++completions_[index];
              r.failed ? ++failed_ : ++ok_;
            });
      }
    }
    fleet_.run();
  }

  /// Invariants 1-5.  Empty = the run is clean.
  std::vector<std::string> check() {
    std::vector<std::string> violations;
    check_conservation(violations);
    check_pins(violations);
    check_death_isolation(violations);
    check_delta_tracker(violations);
    check_frames(violations);
    return violations;
  }

  /// FNV-1a fingerprint of the whole outcome (headline stats + every
  /// completed record's identity and timeline, per card) — invariant 5
  /// compares it across two runs of the same seed.
  std::uint64_t digest() const {
    std::uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
      }
    };
    const core::FleetStats stats = fleet_.stats();
    mix(stats.submitted);
    mix(stats.completed);
    mix(stats.failed);
    mix(stats.deaths);
    mix(stats.redispatched);
    mix(stats.retries);
    mix(stats.timeouts);
    mix(stats.crc_rejects);
    mix(stats.refetches);
    mix(static_cast<std::uint64_t>(stats.makespan.picoseconds()));
    for (unsigned i = 0; i < fleet_.card_count(); ++i) {
      for (const core::ServerRequest& r : fleet_.server(i).completed()) {
        mix(r.id);
        mix(r.client);
        mix(r.function);
        mix(static_cast<std::uint64_t>(r.submit_time.picoseconds()));
        mix(static_cast<std::uint64_t>(r.complete_time.picoseconds()));
        mix(r.output.size());
        mix(r.failed ? 1 : 0);
      }
    }
    mix(ok_);
    mix(failed_);
    return h;
  }

  core::CoprocessorFleet& fleet() noexcept { return fleet_; }
  const sim::FaultPlan& plan() const noexcept { return plan_; }
  /// Mutable on purpose: the mutation tests tamper with it to prove the
  /// conservation check actually bites.
  std::vector<unsigned>& completions() noexcept { return completions_; }
  std::uint64_t ok() const noexcept { return ok_; }
  std::uint64_t failed() const noexcept { return failed_; }

 private:
  static sim::FaultPlan make_plan(const HarnessConfig& config) {
    sim::RandomFaultConfig fc;
    fc.seed = config.seed;
    fc.cards = config.cards;
    fc.horizon = config.fault_horizon;
    fc.death_rate_per_ms = config.death_rate_per_ms;
    fc.mean_downtime = config.mean_downtime;
    fc.corruption_rate_per_ms = config.corruption_rate_per_ms;
    fc.functions = algorithms::function_bank();
    return make_random_fault_plan(fc);
  }

  static core::FleetConfig make_fleet_config(const HarnessConfig& config,
                                             const sim::FaultPlan& plan) {
    core::FleetConfig fc;
    fc.cards = config.cards;
    fc.policy = config.dispatch;
    fc.server.device_policy = config.device;
    fc.server.overlap_reconfig = config.overlap_reconfig;
    fc.server.batch = config.batch;
    fc.card.mcu.engine.delta_reconfig = config.delta_reconfig;
    fc.card.fabric.geometry.frame_count = config.frames;
    fc.card.mcu.policy = config.policy;
    fc.faults = plan;
    fc.retry.timeout = config.timeout;
    fc.retry.max_retries = config.max_retries;
    fc.server.prefetch.enabled = config.prefetch;
    fc.server.prefetch.predictor.min_confidence = config.prefetch_confidence;
    return fc;
  }

  static workload::MultiClientTrace make_trace(const HarnessConfig& config) {
    workload::BurstyConfig wc;
    wc.clients = config.clients;
    wc.bursts = config.bursts;
    wc.burst_size = config.burst_size;
    wc.functions = algorithms::function_bank();
    wc.seed = config.seed * 1000003ull + 17;
    wc.zipf_s = config.zipf_s;
    return workload::make_bursty(wc);
  }

  void check_conservation(std::vector<std::string>& violations) {
    for (std::size_t i = 0; i < completions_.size(); ++i)
      if (completions_[i] != 1) {
        std::ostringstream os;
        os << "conservation: request " << i << " completed "
           << completions_[i] << " times (want exactly 1)";
        violations.push_back(os.str());
      }
    if (ok_ + failed_ != completions_.size()) {
      std::ostringstream os;
      os << "conservation: ok(" << ok_ << ") + failed(" << failed_
         << ") != submitted(" << completions_.size() << ")";
      violations.push_back(os.str());
    }
    if (fleet_.in_flight() != 0)
      violations.push_back("conservation: fleet still has " +
                           std::to_string(fleet_.in_flight()) +
                           " requests in flight after the drain");
    if (!fleet_.scheduler().idle())
      violations.push_back("conservation: scheduler still holds " +
                           std::to_string(fleet_.scheduler().pending()) +
                           " live events after the drain");
  }

  void check_pins(std::vector<std::string>& violations) {
    for (unsigned i = 0; i < fleet_.card_count(); ++i)
      if (fleet_.card(i).mcu().pinned_count() != 0)
        violations.push_back(
            "pins: card " + std::to_string(i) + " still holds " +
            std::to_string(fleet_.card(i).mcu().pinned_count()) +
            " pinned functions after the drain");
  }

  void check_death_isolation(std::vector<std::string>& violations) {
    for (unsigned i = 0; i < fleet_.card_count(); ++i) {
      for (const core::ServerRequest& r : fleet_.server(i).completed()) {
        if (r.failed) continue;  // no fabric window at all
        const sim::SimTime begin = r.fabric_start;
        const sim::SimTime end = r.fabric_start + r.execute_time;
        for (const sim::CardDeath& death : plan_.deaths) {
          if (death.card != i) continue;
          const sim::SimTime down = base_ + death.at;
          // recover_at <= at means the card never comes back: the death
          // interval is open-ended.
          const bool recovers = death.recover_at > death.at;
          const sim::SimTime up = base_ + death.recover_at;
          const bool overlaps =
              begin < (recovers ? up : sim::SimTime::ps(
                                           std::numeric_limits<
                                               std::int64_t>::max())) &&
              end > down;
          if (overlaps) {
            std::ostringstream os;
            os << "death isolation: request " << r.id << " executed on card "
               << i << " during its death interval";
            violations.push_back(os.str());
          }
        }
      }
    }
  }

  void check_delta_tracker(std::vector<std::string>& violations) {
    if (!config_.delta_reconfig) return;
    for (unsigned i = 0; i < fleet_.card_count(); ++i) {
      const mcu::Mcu& mcu = fleet_.card(i).mcu();
      const fabric::Fabric& fabric = fleet_.card(i).fabric();
      for (const memory::FunctionId id : mcu.resident_functions()) {
        for (const fabric::FrameIndex frame : mcu.frames_of(id)) {
          const std::uint64_t tracked = mcu.engine().frame_hash(frame);
          if (tracked == 0) continue;  // unknown is vacuously consistent
          const auto words = fabric.memory().read_frame(frame);
          Bytes bytes;
          bytes.reserve(words.size() * sizeof(fabric::Word));
          for (const fabric::Word word : words)
            for (unsigned b = 0; b < sizeof(fabric::Word); ++b)
              bytes.push_back(static_cast<Byte>((word >> (8 * b)) & 0xff));
          const std::uint64_t actual = mcu::window_content_hash(bytes);
          if (tracked != actual) {
            std::ostringstream os;
            os << "delta tracker: card " << i << " frame " << frame
               << " of function " << id
               << " tracks a hash that does not match the fabric readback";
            violations.push_back(os.str());
          }
        }
      }
    }
  }

  void check_frames(std::vector<std::string>& violations) {
    for (unsigned i = 0; i < fleet_.card_count(); ++i) {
      const mcu::Mcu& mcu = fleet_.card(i).mcu();
      const mcu::FreeFrameList& free = mcu.free_frames();
      // Every free frame: a scattered gather of all of them.
      std::set<fabric::FrameIndex> free_set;
      if (free.free_count() > 0) {
        const auto all_free = free.peek(
            free.free_count(), mcu::AllocationStrategy::kGatherScattered);
        free_set.insert(all_free->begin(), all_free->end());
      }
      std::map<fabric::FrameIndex, memory::FunctionId> owner;
      std::size_t owned = 0;
      for (const auto& [id, row] : mcu.frame_table()) {
        for (const fabric::FrameIndex frame : row.frames) {
          ++owned;
          std::ostringstream os;
          if (const auto [it, fresh] = owner.emplace(frame, id); !fresh)
            os << "frames: card " << i << " frame " << frame
               << " belongs to both function " << it->second << " and "
               << id;
          else if (free_set.contains(frame))
            os << "frames: card " << i << " frame " << frame
               << " of function " << id << " is on the free list";
          if (!os.str().empty()) violations.push_back(os.str());
        }
      }
      if (free.free_count() + owned != free.frame_count()) {
        std::ostringstream os;
        os << "frames: card " << i << " has " << free.free_count()
           << " free + " << owned << " owned frames, not "
           << free.frame_count();
        violations.push_back(os.str());
      }
    }
  }

  HarnessConfig config_;
  sim::FaultPlan plan_;
  core::CoprocessorFleet fleet_;
  sim::SimTime base_;
  std::vector<unsigned> completions_;
  std::uint64_t ok_ = 0;
  std::uint64_t failed_ = 0;
};

/// PR-gating default is 5 seeds; the nightly CI job raises it to 50 via the
/// AAD_INVARIANT_SEEDS environment variable (failing seeds are printed so
/// the artifact upload can capture them).
inline unsigned invariant_seed_count(unsigned fallback = 5) {
  if (const char* env = std::getenv("AAD_INVARIANT_SEEDS")) {
    const long n = std::strtol(env, nullptr, 10);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return fallback;
}

}  // namespace aad::harness
