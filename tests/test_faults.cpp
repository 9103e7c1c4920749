// Fault injection + recovery across the fleet.
//
// The headline is the property-based sweep: seeded random fault plans
// (card deaths, recoveries, ROM corruption) run against every dispatch x
// batch policy combination, then tests/invariant_harness.h asserts the
// system-wide invariants (conservation, pin hygiene, death isolation,
// delta-tracker consistency, determinism).  The mutation tests doctor a
// clean run to prove the harness actually catches violations.  Around the
// sweep sit targeted regressions: redispatch off a dead card (including a
// request submitted straight to the card's server), CRC-reject + refetch
// recovery, watchdog timeouts retrying on a survivor and spending their
// attempts across deaths, cold fabric after revival, and a differential
// test that every DevicePolicy x BatchMode combination completes the
// exact same request set as the FIFO/no-batch baseline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/fleet.h"
#include "invariant_harness.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

// --- property-based invariant sweep ----------------------------------------

harness::HarnessConfig sweep_config(std::uint64_t seed, unsigned slot) {
  harness::HarnessConfig hc;
  hc.seed = seed;
  // Rotate through >= 3 dispatch policies x 2 batch modes; fold the device
  // scheduler, delta reconfiguration, corruption, and the watchdog in as
  // extra axes so 5 PR seeds already cross most of the space and 50
  // nightly seeds cover it many times over.
  static const DispatchPolicy kDispatch[] = {DispatchPolicy::kRoundRobin,
                                             DispatchPolicy::kLeastQueued,
                                             DispatchPolicy::kResidencyAffinity};
  hc.dispatch = kDispatch[slot % 3];
  hc.batch.mode = (slot % 6) < 3 ? BatchMode::kNone : BatchMode::kGreedy;
  hc.device = (slot % 2) ? DevicePolicy::kResidentFirst : DevicePolicy::kFifo;
  hc.delta_reconfig = (slot % 2) == 1;
  // Two watchdogs: a loose 800 us one that rarely fires, and a tight
  // 150 us one with a single retry (slots 1-2 of every 5) that pulls queued
  // requests back, retries them and exhausts budgets under the death plans.
  if (slot % 3 == 0) {
    hc.timeout = sim::SimTime::us(800);
  } else if (slot % 5 == 1 || slot % 5 == 2) {
    hc.timeout = sim::SimTime::us(150);
    hc.max_retries = 1;
  }
  // Speculative prefetch rides along on a co-prime cadence (slots 2-3 of
  // every 4) so the sweep crosses it with every other axis: the invariants
  // must hold when a card dies mid-prefetch, and speculative pins must
  // unwind exactly like demand pins.
  hc.prefetch = (slot % 4) >= 2;
  // Compress the fault horizon into the traffic window so deaths land while
  // requests are actually in flight.
  hc.death_rate_per_ms = 0.3;
  hc.mean_downtime = sim::SimTime::us(400);
  hc.corruption_rate_per_ms = (slot % 2) ? 0.2 : 0.0;
  hc.fault_horizon = sim::SimTime::ms(3);
  hc.clients = 4;
  hc.bursts = 2;
  hc.burst_size = 4;
  return hc;
}

TEST(InvariantSweepTest, CleanAcrossSeedsAndPolicies) {
  const unsigned seeds = harness::invariant_seed_count();
  std::vector<std::uint64_t> failing;
  std::uint64_t timeouts = 0;
  for (unsigned s = 0; s < seeds; ++s) {
    const harness::HarnessConfig hc = sweep_config(1000 + s, s);
    harness::InvariantHarness h(hc);
    h.run();
    timeouts += h.fleet().stats().timeouts;
    const std::vector<std::string> violations = h.check();
    if (!violations.empty()) {
      failing.push_back(hc.seed);
      for (const std::string& v : violations)
        ADD_FAILURE() << "seed " << hc.seed << ": " << v;
    }
  }
  if (!failing.empty()) {
    // Nightly CI points AAD_FAILING_SEEDS_FILE at a path it uploads as an
    // artifact, so a red run carries its repro seeds with it.
    std::ostringstream os;
    os << "FAILING_SEEDS:";
    for (const std::uint64_t seed : failing) os << ' ' << seed;
    std::cerr << os.str() << std::endl;
    if (const char* path = std::getenv("AAD_FAILING_SEEDS_FILE")) {
      std::ofstream out(path, std::ios::app);
      out << os.str() << '\n';
    }
  }
  // The tight watchdog axis (from slot 1 on) must actually pull requests
  // back.
  if (seeds >= 2) {
    EXPECT_GT(timeouts, 0u);
  }
}

// The sweep above rarely fills a card, so it almost never evicts.  Two
// 24-frame cards under a flatter, wider workload evict on every seed, so
// the frame-ownership audit sees evictions as well as deaths, and the
// replacement policy rotates so every victim rule meets pins and deaths.
TEST(InvariantSweepTest, CleanUnderEvictionPressure) {
  static const mcu::PolicyKind kPolicies[] = {
      mcu::PolicyKind::kLru, mcu::PolicyKind::kFifo, mcu::PolicyKind::kLfu,
      mcu::PolicyKind::kRandom, mcu::PolicyKind::kBelady};
  const unsigned seeds = harness::invariant_seed_count();
  std::uint64_t evictions = 0;
  for (unsigned s = 0; s < seeds; ++s) {
    harness::HarnessConfig hc = sweep_config(3000 + s, s);
    hc.cards = 2;
    hc.frames = 24;
    hc.clients = 6;
    hc.bursts = 3;
    hc.burst_size = 2;
    hc.zipf_s = 0.3;
    hc.policy = kPolicies[s % 5];
    harness::InvariantHarness h(hc);
    h.run();
    for (unsigned i = 0; i < h.fleet().card_count(); ++i)
      evictions += h.fleet().card(i).mcu().stats().evictions;
    for (const std::string& v : h.check())
      ADD_FAILURE() << "seed " << hc.seed << ": " << v;
  }
  EXPECT_GT(evictions, 0u);
}

TEST(InvariantSweepTest, SameSeedSameDigest) {
  const harness::HarnessConfig hc = sweep_config(424242, 3);
  harness::InvariantHarness a(hc);
  harness::InvariantHarness b(hc);
  a.run();
  b.run();
  EXPECT_TRUE(a.check().empty());
  EXPECT_EQ(a.digest(), b.digest());
}

// Heavier prefetch pressure than the rotating sweep: every seed runs with
// the predictor on at low confidence (many speculative loads) under the
// same compressed death plans.  A card dying mid-prefetch must not break
// conservation or leak the transient pins the pump holds during its
// feasibility probe + load.
TEST(InvariantSweepTest, CleanWithPrefetchUnderFaults) {
  const unsigned seeds = harness::invariant_seed_count();
  for (unsigned s = 0; s < seeds; ++s) {
    harness::HarnessConfig hc = sweep_config(3000 + s, s);
    hc.prefetch = true;
    hc.prefetch_confidence = 0.3;
    harness::InvariantHarness h(hc);
    h.run();
    for (const std::string& v : h.check())
      ADD_FAILURE() << "prefetch seed " << hc.seed << ": " << v;
    // Speculative ledger closes: every issued prefetch was consumed by a
    // demand hit, stolen/wiped (wasted), or is still resident awaiting one
    // (a subset of prefetch_outstanding, which also counts unissued
    // candidates).
    for (unsigned i = 0; i < h.fleet().card_count(); ++i) {
      const ServerStats stats = h.fleet().server(i).stats();
      EXPECT_GE(stats.prefetch_issued,
                stats.prefetch_hits + stats.prefetch_wasted)
          << "seed " << hc.seed << " card " << i;
      EXPECT_LE(
          stats.prefetch_issued - stats.prefetch_hits - stats.prefetch_wasted,
          h.fleet().server(i).prefetch_outstanding())
          << "seed " << hc.seed << " card " << i;
    }
  }
}

TEST(InvariantSweepTest, PrefetchSameSeedSameDigest) {
  harness::HarnessConfig hc = sweep_config(424243, 2);
  hc.prefetch = true;
  hc.prefetch_confidence = 0.3;
  harness::InvariantHarness a(hc);
  harness::InvariantHarness b(hc);
  a.run();
  b.run();
  EXPECT_TRUE(a.check().empty());
  EXPECT_EQ(a.digest(), b.digest());
}

// The harness must catch a run whose completion ledger was doctored —
// otherwise "no violations" could mean "checks nothing".
TEST(InvariantSweepTest, MutantDoubleCompletionIsCaught) {
  harness::HarnessConfig hc;
  hc.seed = 7;
  hc.death_rate_per_ms = 0.0;  // clean run, then tamper
  harness::InvariantHarness h(hc);
  h.run();
  ASSERT_TRUE(h.check().empty());
  ASSERT_FALSE(h.completions().empty());
  h.completions().front() = 2;  // pretend a hook double-fired
  const std::vector<std::string> violations = h.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("conservation"), std::string::npos);
}

TEST(InvariantSweepTest, MutantLeakedPinIsCaught) {
  harness::HarnessConfig hc;
  hc.seed = 11;
  hc.death_rate_per_ms = 0.0;
  harness::InvariantHarness h(hc);
  h.run();
  ASSERT_TRUE(h.check().empty());
  // Leak a pin on some card that still holds residency.
  bool leaked = false;
  for (unsigned i = 0; i < h.fleet().card_count() && !leaked; ++i) {
    const auto resident = h.fleet().card(i).mcu().resident_functions();
    if (resident.empty()) continue;
    h.fleet().card(i).mcu().pin(resident.front());
    leaked = true;
  }
  ASSERT_TRUE(leaked) << "no card kept residency; cannot stage the mutant";
  const std::vector<std::string> violations = h.check();
  ASSERT_FALSE(violations.empty());
  EXPECT_NE(violations.front().find("pins"), std::string::npos);
}

// --- targeted fault regressions --------------------------------------------

workload::MultiClientTrace bursty_trace(std::uint64_t seed, unsigned clients,
                                        std::size_t bursts,
                                        std::size_t burst_size) {
  workload::BurstyConfig wc;
  wc.clients = clients;
  wc.bursts = bursts;
  wc.burst_size = burst_size;
  wc.functions = algorithms::function_bank();
  wc.seed = seed;
  return workload::make_bursty(wc);
}

// Three of four cards die mid-burst (one for good); every request still
// completes or fails exactly once, nothing hangs, and the recovery
// counters show the machinery actually ran.
TEST(FaultRecoveryTest, ZeroHungRequestsUnderDeathPlan) {
  FleetConfig fc;
  fc.cards = 4;
  fc.retry.timeout = sim::SimTime::ms(5);  // backstop watchdog
  fc.faults.deaths = {
      {0, sim::SimTime::us(100), sim::SimTime::us(900)},
      {1, sim::SimTime::us(250), sim::SimTime::us(1200)},
      {2, sim::SimTime::us(400), sim::SimTime::zero()},  // never recovers
  };
  CoprocessorFleet fleet(fc);
  fleet.download_all();

  const workload::MultiClientTrace trace = bursty_trace(31, 6, 3, 4);
  std::vector<unsigned> fired(trace.total_requests(), 0);
  std::size_t index = 0;
  const sim::SimTime base = fleet.now();
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      const std::size_t slot = index++;
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, slot),
          [&fired, slot](const ServerRequest&) { ++fired[slot]; });
    }
  fleet.run();

  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_TRUE(fleet.scheduler().idle());
  for (std::size_t i = 0; i < fired.size(); ++i)
    EXPECT_EQ(fired[i], 1u) << "request " << i << " hung or double-completed";

  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 3u);
  EXPECT_GT(stats.redispatched, 0u);
  EXPECT_EQ(stats.completed + stats.failed, fired.size());
  EXPECT_TRUE(fleet.card_alive(0));
  EXPECT_TRUE(fleet.card_alive(1));
  EXPECT_FALSE(fleet.card_alive(2));
  EXPECT_TRUE(fleet.card_alive(3));
}

// A revived card comes back with a cold fabric: nothing resident, nothing
// pinned, and it serves traffic again afterwards.
TEST(FaultRecoveryTest, DeathRecoveryLeavesFabricCold) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::ms(5);
  fc.faults.deaths = {{0, sim::SimTime::us(300), sim::SimTime::us(700)}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const sim::SimTime base = fleet.now();

  const workload::MultiClientTrace trace = bursty_trace(5, 4, 2, 3);
  std::size_t fired = 0;
  std::size_t index = 0;
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, index++),
          [&fired](const ServerRequest&) { ++fired; });
    }
  // Probe the card while it is down: dead, cold, unpinned.
  fleet.scheduler().schedule_at(base + sim::SimTime::us(350), [&fleet] {
    EXPECT_FALSE(fleet.card_alive(0));
    EXPECT_EQ(fleet.card(0).mcu().resident_count(), 0u);
    EXPECT_EQ(fleet.card(0).mcu().pinned_count(), 0u);
  });
  fleet.run();

  EXPECT_TRUE(fleet.card_alive(0));
  EXPECT_EQ(fired, index);
  EXPECT_EQ(fleet.in_flight(), 0u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 1u);
  EXPECT_EQ(stats.completed + stats.failed, fired);
}

// With a single card and a death that never recovers, in-flight and
// later-arriving requests fail cleanly (kCardDeath) instead of hanging.
TEST(FaultRecoveryTest, NoSurvivorFailsCleanly) {
  FleetConfig fc;
  fc.cards = 1;
  fc.faults.deaths = {{0, sim::SimTime::us(200), sim::SimTime::zero()}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const sim::SimTime base = fleet.now();

  const workload::MultiClientTrace trace = bursty_trace(13, 3, 2, 3);
  std::size_t ok = 0, failed = 0;
  std::size_t index = 0;
  for (const auto& client : trace.clients)
    for (const auto& r : client.requests) {
      fleet.submit_function_at(
          base + r.offset, client.client, r.function,
          algorithms::bank_input(r.function, r.payload_blocks, index++),
          [&ok, &failed](const ServerRequest& done) {
            if (done.failed) {
              EXPECT_EQ(done.fail_reason, FailReason::kCardDeath);
              ++failed;
            } else {
              ++ok;
            }
          });
    }
  fleet.run();

  EXPECT_EQ(ok + failed, index);
  EXPECT_GT(failed, 0u);
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_TRUE(fleet.scheduler().idle());
  EXPECT_FALSE(fleet.card_alive(0));
}

// A plan naming a card the fleet does not have is a configuration error,
// not a fault to skip: the constructor rejects it loudly.
TEST(FaultRecoveryTest, PlanNamingAMissingCardThrows) {
  FleetConfig dies;
  dies.cards = 2;
  dies.faults.deaths = {{2, sim::SimTime::us(200), sim::SimTime::zero()}};
  EXPECT_THROW(CoprocessorFleet{dies}, Error);

  FleetConfig corrupts;
  corrupts.cards = 2;
  corrupts.faults.corruptions = {
      {5, algorithms::function_bank().front(), sim::SimTime::us(10)}};
  EXPECT_THROW(CoprocessorFleet{corrupts}, Error);

  FleetConfig last_card = dies;
  last_card.faults.deaths.front().card = 1;
  EXPECT_NO_THROW(CoprocessorFleet{last_card});
}

// --- corrupted bitstreams ---------------------------------------------------

// A corrupted ROM image is rejected by the CRC check before any frame is
// programmed, re-fetched from the pristine host copy, and the request then
// completes normally.
TEST(CrcRejectTest, RefetchRecoversCorruptedBitstream) {
  AgileCoprocessor card;
  card.download_all();
  const memory::FunctionId fn = algorithms::function_bank().front();
  ASSERT_TRUE(card.mcu().rom().corrupt_payload(fn, /*seed=*/99,
                                               /*bit_flips=*/8));

  CoprocessorServer server(card, {});
  bool fired = false;
  server.submit_function(0, fn, algorithms::bank_input(fn, 2, 0),
                         [&fired](const ServerRequest& done) {
                           fired = true;
                           EXPECT_FALSE(done.failed);
                           EXPECT_FALSE(done.output.empty());
                         });
  server.run();

  EXPECT_TRUE(fired);
  EXPECT_EQ(card.mcu().stats().crc_rejects, 1u);
  EXPECT_EQ(card.mcu().stats().refetches, 1u);
  EXPECT_TRUE(card.mcu().is_resident(fn));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.crc_rejects, 1u);
  EXPECT_EQ(stats.refetches, 1u);
  EXPECT_EQ(stats.failed, 0u);
}

// With refetch disabled the load is rejected cleanly: the request fails
// with kCrcReject, nothing is programmed, no pins leak, and the card keeps
// serving other functions.
TEST(CrcRejectTest, WithoutRefetchFailsCleanly) {
  CoprocessorConfig cc;
  cc.mcu.refetch_on_crc_reject = false;
  AgileCoprocessor card(cc);
  card.download_all();
  const auto bank = algorithms::function_bank();
  ASSERT_GE(bank.size(), 2u);
  const memory::FunctionId bad = bank[0];
  const memory::FunctionId good = bank[1];
  ASSERT_TRUE(card.mcu().rom().corrupt_payload(bad, 99, 8));

  {
    CoprocessorServer server(card, {});
    bool bad_fired = false, good_fired = false;
    server.submit_function(0, bad, algorithms::bank_input(bad, 1, 0),
                           [&bad_fired](const ServerRequest& done) {
                             bad_fired = true;
                             EXPECT_TRUE(done.failed);
                             EXPECT_EQ(done.fail_reason,
                                       FailReason::kCrcReject);
                           });
    server.submit_function(1, good, algorithms::bank_input(good, 1, 1),
                           [&good_fired](const ServerRequest& done) {
                             good_fired = true;
                             EXPECT_FALSE(done.failed);
                           });
    server.run();

    EXPECT_TRUE(bad_fired);
    EXPECT_TRUE(good_fired);
    EXPECT_EQ(card.mcu().stats().crc_rejects, 1u);
    EXPECT_EQ(card.mcu().stats().refetches, 0u);
    EXPECT_FALSE(card.mcu().is_resident(bad));
    EXPECT_TRUE(card.mcu().is_resident(good));
    EXPECT_EQ(card.mcu().pinned_count(), 0u);
    EXPECT_EQ(server.stats().failed, 1u);
    EXPECT_EQ(server.in_flight(), 0u);
  }

  // The blocking API runs the same server path, once the card's own server
  // is gone, and reports the reject by throwing instead of returning a
  // record without output.
  try {
    card.invoke_function(bad, algorithms::bank_input(bad, 1, 2));
    ADD_FAILURE() << "a synchronous invoke of a corrupted bitstream returned";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
  EXPECT_FALSE(card.mcu().is_resident(bad));
  EXPECT_EQ(card.mcu().pinned_count(), 0u);
  EXPECT_TRUE(card.scheduler().idle());
}

// --- watchdog timeouts ------------------------------------------------------

// A request stuck behind a deep backlog on one card times out, is pulled
// off that queue (it never committed), and retries on the idle survivor.
TEST(TimeoutTest, RetriesOnSurvivor) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::us(300);
  fc.retry.max_retries = 3;
  fc.retry.backoff_base = sim::SimTime::us(50);
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  // Bury card 0 under direct submissions the fleet does not track.
  for (unsigned i = 0; i < 24; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(0).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  // Round-robin sends the first fleet ticket to card 0's backlog.
  bool fired = false;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          fired = true;
                          EXPECT_FALSE(done.failed);
                        });
  fleet.run();

  EXPECT_TRUE(fired);
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.timeouts, 1u);
  EXPECT_GE(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// With a single card, exhausting the retry budget fails the request with
// kTimeout instead of retrying forever.
TEST(TimeoutTest, ExhaustedRetriesFail) {
  FleetConfig fc;
  fc.cards = 1;
  fc.retry.timeout = sim::SimTime::us(100);
  fc.retry.max_retries = 1;
  fc.retry.backoff_base = sim::SimTime::us(50);
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  for (unsigned i = 0; i < 40; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(0).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  bool fired = false;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          fired = true;
                          EXPECT_TRUE(done.failed);
                          EXPECT_EQ(done.fail_reason, FailReason::kTimeout);
                        });
  fleet.run();

  EXPECT_TRUE(fired);
  const FleetStats stats = fleet.stats();
  EXPECT_GE(stats.timeouts, 2u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// Card 0 dies under a request with a long watchdog; the redispatch lands
// behind card 1's backlog and times out.  The death redispatch spent the
// request's one retry, so the timeout fails it instead of retrying.
TEST(TimeoutTest, DeathRedispatchSpendsAnAttempt) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::us(300);
  fc.retry.max_retries = 1;
  fc.faults.deaths = {{0, sim::SimTime::us(20), sim::SimTime::zero()}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  for (unsigned i = 0; i < 40; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(1).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  unsigned fired = 0;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          ++fired;
                          EXPECT_TRUE(done.failed);
                          EXPECT_EQ(done.fail_reason, FailReason::kTimeout);
                        });
  fleet.run();

  EXPECT_EQ(fired, 1u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 1u);
  EXPECT_EQ(stats.redispatched, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_EQ(fleet.sim_pending(), 0u);
}

// The watchdog fires while the request's cold load is committed on card 0,
// so the request rides on and keeps its watch.  Card 0 then dies: the
// redispatch is the second attempt, and when it times out behind card 1's
// backlog the single retry is already spent.
TEST(TimeoutTest, CommittedRequestKeepsItsAttemptsAfterItsWatchdog) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  fc.retry.timeout = sim::SimTime::us(50);
  fc.retry.max_retries = 1;
  fc.faults.deaths = {{0, sim::SimTime::us(100), sim::SimTime::zero()}};
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto bank = algorithms::function_bank();

  for (unsigned i = 0; i < 40; ++i) {
    const memory::FunctionId fn = bank[i % bank.size()];
    fleet.server(1).submit_function(100 + i, fn,
                                    algorithms::bank_input(fn, 2, i), {});
  }
  unsigned fired = 0;
  fleet.submit_function(0, bank.front(),
                        algorithms::bank_input(bank.front(), 1, 1000),
                        [&fired](const ServerRequest& done) {
                          ++fired;
                          EXPECT_TRUE(done.failed);
                          EXPECT_EQ(done.fail_reason, FailReason::kTimeout);
                        });
  fleet.run_until(fleet.now() + sim::SimTime::us(99));
  // The first watchdog has fired and let the committed request ride.
  EXPECT_EQ(fleet.stats().timeouts, 0u);
  EXPECT_EQ(fleet.server(0).in_flight(), 1u);
  fleet.run();

  EXPECT_EQ(fired, 1u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.deaths, 1u);
  EXPECT_EQ(stats.redispatched, 1u);
  EXPECT_EQ(stats.timeouts, 1u);
  EXPECT_EQ(stats.retries, 0u);
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_EQ(fleet.sim_pending(), 0u);
}

// --- requests submitted straight to a card's server --------------------------

// The fleet keeps no ledger of its own: a request submitted directly to an
// exposed per-card server is a refugee like any other when that card dies,
// and is redispatched to a survivor.
TEST(FaultRecoveryTest, DirectSubmissionSurvivesCardDeath) {
  FleetConfig fc;
  fc.cards = 2;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const memory::FunctionId fn = algorithms::function_bank().front();

  unsigned fired = 0;
  fleet.server(0).submit_function(7, fn, algorithms::bank_input(fn, 2, 0),
                                  [&fired](const ServerRequest& done) {
                                    ++fired;
                                    EXPECT_FALSE(done.failed);
                                    EXPECT_FALSE(done.output.empty());
                                  });
  fleet.scheduler().schedule_at(fleet.now() + sim::SimTime::us(20),
                                [&fleet] { fleet.kill_card(0); });
  fleet.run();

  EXPECT_EQ(fired, 1u);
  EXPECT_TRUE(fleet.server(0).completed().empty());
  ASSERT_EQ(fleet.server(1).completed().size(), 1u);
  EXPECT_EQ(fleet.server(1).completed().front().client, 7u);
  const FleetStats stats = fleet.stats();
  EXPECT_EQ(stats.redispatched, 1u);
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed);
  EXPECT_EQ(fleet.in_flight(), 0u);
}

// --- fault machinery is inert when disarmed ---------------------------------

std::uint64_t completed_digest(const CoprocessorFleet& fleet) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (unsigned i = 0; i < fleet.card_count(); ++i)
    for (const ServerRequest& r : fleet.server(i).completed()) {
      mix(r.id);
      mix(r.client);
      mix(r.function);
      mix(static_cast<std::uint64_t>(r.submit_time.picoseconds()));
      mix(static_cast<std::uint64_t>(r.complete_time.picoseconds()));
      mix(r.output.size());
    }
  return h;
}

// Arming the watchdog with a timeout that never fires routes every request
// through the watch table — and must not move a single completion time,
// nor leave a watch or a timeout event behind.
TEST(FaultModeTest, IdleWatchdogIsTimingNeutral) {
  const workload::MultiClientTrace trace = bursty_trace(21, 4, 2, 4);
  const auto run_fleet = [&trace](bool watchdog) {
    FleetConfig fc;
    fc.cards = 2;
    if (watchdog) fc.retry.timeout = sim::SimTime::ms(1000);  // never fires
    CoprocessorFleet fleet(fc);
    fleet.download_all();
    workload::replay(fleet, trace, request_input);
    fleet.run();
    // run() drains the queue, so a timeout left armed after its request
    // completed would have fired and dragged the clock to its expiry.
    EXPECT_EQ(fleet.sim_pending(), 0u);
    const FleetStats stats = fleet.stats();
    EXPECT_EQ(stats.timeouts, 0u);
    EXPECT_EQ(stats.failed, 0u);
    return std::make_pair(completed_digest(fleet), fleet.now());
  };
  EXPECT_EQ(run_fleet(false), run_fleet(true));
}

// --- differential: device policies and batch modes preserve the served set --

// Every DevicePolicy x BatchMode combination must complete exactly the
// same multiset of (client, function, output) as the FIFO/no-batch
// baseline on the same trace — the device stage reorders and coalesces
// work, it never changes what gets computed.
TEST(DifferentialTest, AllCombosCompleteSameRequestSet) {
  const workload::MultiClientTrace trace = bursty_trace(77, 4, 2, 4);
  const auto served_set = [&trace](DevicePolicy dp, BatchMode bm) {
    AgileCoprocessor card;
    card.download_all();
    ServerConfig sc;
    sc.device_policy = dp;
    sc.batch.mode = bm;
    CoprocessorServer server(card, sc);
    workload::replay(server, trace, request_input);
    server.run();
    std::multiset<std::string> set;
    for (const ServerRequest& r : server.completed()) {
      std::ostringstream os;
      os << r.client << '/' << r.function << '/';
      for (const Byte b : r.output) os << static_cast<unsigned>(b) << ',';
      set.insert(os.str());
    }
    EXPECT_EQ(set.size(), trace.total_requests());
    return set;
  };

  const auto baseline = served_set(DevicePolicy::kFifo, BatchMode::kNone);
  for (const DevicePolicy dp :
       {DevicePolicy::kFifo, DevicePolicy::kResidentFirst,
        DevicePolicy::kShortestReconfigFirst}) {
    for (const BatchMode bm :
         {BatchMode::kNone, BatchMode::kGreedy, BatchMode::kWindowed}) {
      if (dp == DevicePolicy::kFifo && bm == BatchMode::kNone) continue;
      EXPECT_EQ(served_set(dp, bm), baseline)
          << "policy " << to_string(dp) << " x " << to_string(bm)
          << " served a different request set";
    }
  }
}

}  // namespace
}  // namespace aad::core
