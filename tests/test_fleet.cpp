// Tests for the sharded CoprocessorFleet: dispatch policies route
// deterministically, residency-affinity earns a higher configuration-cache
// hit rate than round-robin on skewed traffic, a single-card fleet is
// bit-exact with a bare CoprocessorServer, and the aggregated statistics
// stay coherent.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "bitstream/synth.h"
#include "core/fleet.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

using algorithms::KernelId;

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

workload::MultiClientTrace skewed_trace(std::uint64_t seed) {
  workload::MultiClientConfig wc;
  wc.clients = 8;
  wc.requests_per_client = 16;
  wc.functions = algorithms::function_bank();
  wc.seed = seed;
  wc.zipf_s = 1.1;  // a popular head the affinity router can keep resident
  wc.payload_blocks = 2;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  return workload::make_multi_client(wc);
}

FleetStats run_fleet(unsigned cards, DispatchPolicy policy,
                     const workload::MultiClientTrace& trace) {
  FleetConfig fc;
  fc.cards = cards;
  fc.policy = policy;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();
  return fleet.stats();
}

TEST(CoprocessorFleetTest, SingleCardFleetIsBitExactWithServer) {
  workload::MultiClientConfig wc;
  wc.clients = 4;
  wc.requests_per_client = 8;
  wc.functions = algorithms::function_bank();
  wc.seed = 13;
  wc.zipf_s = 1.0;
  wc.mode = workload::ArrivalMode::kOpenLoop;
  wc.mean_interarrival = sim::SimTime::us(80);
  const auto trace = workload::make_multi_client(wc);

  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);
  workload::replay(server, trace, request_input);
  server.run();

  FleetConfig fc;
  fc.cards = 1;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();

  // The extra dispatch hop must not perturb timing: every request's full
  // breakdown matches the bare server, event for event.  (Only the id
  // labels differ — the bare server numbers requests at submission, the
  // fleet's inner server at arrival.)
  const auto& direct = server.completed();
  const auto& sharded = fleet.server(0).completed();
  ASSERT_EQ(direct.size(), sharded.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].client, sharded[i].client);
    EXPECT_EQ(direct[i].function, sharded[i].function);
    EXPECT_EQ(direct[i].output, sharded[i].output);
    EXPECT_EQ(direct[i].submit_time, sharded[i].submit_time);
    EXPECT_EQ(direct[i].complete_time, sharded[i].complete_time);
    EXPECT_EQ(direct[i].bus_wait(), sharded[i].bus_wait());
    EXPECT_EQ(direct[i].device_wait(), sharded[i].device_wait());
    EXPECT_EQ(direct[i].load.hit, sharded[i].load.hit);
  }
  // Every ServerStats field of the fleet matches the bare server's: the
  // fleet's figures come from the same pooled merge.
  const ServerStats a = server.stats();
  const FleetStats b = fleet.stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.config_hits, b.config_hits);
  EXPECT_TRUE(a == static_cast<const ServerStats&>(b));
  EXPECT_TRUE(a == b.cards[0].server);
}

TEST(CoprocessorFleetTest, RoundRobinCyclesCardsInOrder) {
  FleetConfig fc;
  fc.cards = 4;
  fc.policy = DispatchPolicy::kRoundRobin;
  CoprocessorFleet fleet(fc);
  fleet.download(KernelId::kXtea);

  const auto fn = algorithms::function_id(KernelId::kXtea);
  // Probing never advances the cursor...
  EXPECT_EQ(fleet.preview_card(fn), 0u);
  EXPECT_EQ(fleet.preview_card(fn), 0u);
  // ...only real dispatches do, cycling the cards in index order.
  for (unsigned i = 0; i < 8; ++i) {
    fleet.submit(i, KernelId::kXtea, request_input(fn, 1, i));
    fleet.run();
    EXPECT_EQ(fleet.stats().cards[i % 4].dispatched, i / 4 + 1)
        << "request " << i;
    EXPECT_EQ(fleet.preview_card(fn), (i + 1) % 4u);
  }
}

TEST(CoprocessorFleetTest, LeastQueuedBreaksTiesTowardLowestCard) {
  FleetConfig fc;
  fc.cards = 3;
  fc.policy = DispatchPolicy::kLeastQueued;
  CoprocessorFleet fleet(fc);
  fleet.download(KernelId::kCrc32);
  const auto fn = algorithms::function_id(KernelId::kCrc32);
  // Idle fleet: every probe is a three-way tie and must resolve to card 0.
  EXPECT_EQ(fleet.preview_card(fn), 0u);
  EXPECT_EQ(fleet.preview_card(fn), 0u);
}

TEST(CoprocessorFleetTest, AffinityRoutesToTheResidentCard) {
  FleetConfig fc;
  fc.cards = 4;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  CoprocessorFleet fleet(fc);
  fleet.download_all();

  const auto fn = algorithms::function_id(KernelId::kSha256);
  // Cold fleet: no card holds SHA-256, so dispatch falls back (to card 0,
  // the least-queued tie-winner) and the warm-up makes card 0 resident.
  fleet.submit(0, KernelId::kSha256, request_input(fn, 2, 1));
  fleet.run();
  ASSERT_TRUE(fleet.card(0).mcu().is_resident(fn));

  const auto before = fleet.stats();
  EXPECT_EQ(before.affinity_fallback, 1u);

  // Warm fleet: every later SHA-256 request chases the resident card.
  for (unsigned i = 0; i < 4; ++i)
    fleet.submit(i, KernelId::kSha256, request_input(fn, 2, 2 + i));
  fleet.run();

  const auto after = fleet.stats();
  EXPECT_EQ(after.affinity_routed, before.affinity_routed + 4);
  EXPECT_EQ(after.cards[0].dispatched, 5u);
  for (unsigned i = 1; i < 4; ++i)
    EXPECT_EQ(after.cards[i].dispatched, 0u) << "card " << i;
  // All follow-ups were configuration hits on card 0.
  EXPECT_EQ(after.cards[0].server.config_hits, 4u);
}

TEST(CoprocessorFleetTest, AffinityBeatsRoundRobinHitRateOnSkewedTrace) {
  const auto trace = skewed_trace(29);
  const auto rr = run_fleet(4, DispatchPolicy::kRoundRobin, trace);
  const auto aff = run_fleet(4, DispatchPolicy::kResidencyAffinity, trace);

  ASSERT_EQ(rr.completed, trace.total_requests());
  ASSERT_EQ(aff.completed, trace.total_requests());
  // The whole point of the fleet's affinity signal: strictly more requests
  // find their configuration already on the fabric.
  EXPECT_GT(aff.hit_rate, rr.hit_rate);
  EXPECT_GT(aff.config_hits, rr.config_hits);
}

TEST(CoprocessorFleetTest, DispatchIsDeterministicAcrossRuns) {
  const auto trace = skewed_trace(31);
  for (const auto policy :
       {DispatchPolicy::kRoundRobin, DispatchPolicy::kLeastQueued,
        DispatchPolicy::kResidencyAffinity}) {
    const auto a = run_fleet(3, policy, trace);
    const auto b = run_fleet(3, policy, trace);
    EXPECT_EQ(a.completed, b.completed) << to_string(policy);
    EXPECT_EQ(a.makespan, b.makespan) << to_string(policy);
    EXPECT_EQ(a.config_hits, b.config_hits) << to_string(policy);
    EXPECT_EQ(a.latency.p99, b.latency.p99) << to_string(policy);
    ASSERT_EQ(a.cards.size(), b.cards.size());
    for (std::size_t i = 0; i < a.cards.size(); ++i)
      EXPECT_EQ(a.cards[i].dispatched, b.cards[i].dispatched)
          << to_string(policy) << " card " << i;
  }
}

TEST(CoprocessorFleetTest, OutputsMatchHostBaselineOnEveryCard) {
  FleetConfig fc;
  fc.cards = 3;
  fc.policy = DispatchPolicy::kRoundRobin;  // spray across all cards
  CoprocessorFleet fleet(fc);
  fleet.download_all();

  std::vector<std::pair<KernelId, Bytes>> submitted;
  unsigned client = 0;
  for (const auto& spec : algorithms::catalog()) {
    Bytes input = spec.make_input(2, 90 + client);
    fleet.submit(client, spec.id, input);
    submitted.emplace_back(spec.id, std::move(input));
    ++client;
  }
  fleet.run();

  std::size_t checked = 0;
  for (unsigned i = 0; i < fleet.card_count(); ++i)
    for (const ServerRequest& r : fleet.server(i).completed()) {
      const auto& [kernel, input] = submitted.at(r.client);
      ASSERT_EQ(algorithms::function_id(kernel), r.function);
      EXPECT_EQ(r.output, algorithms::spec(kernel).software(input))
          << algorithms::spec(kernel).name;
      ++checked;
    }
  EXPECT_EQ(checked, submitted.size());
}

TEST(CoprocessorFleetTest, StatsAggregateTheCards) {
  const auto trace = skewed_trace(37);
  FleetConfig fc;
  fc.cards = 4;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();
  const auto stats = fleet.stats();

  EXPECT_EQ(stats.submitted, trace.total_requests());
  EXPECT_EQ(stats.completed, trace.total_requests());
  EXPECT_EQ(fleet.in_flight(), 0u);
  EXPECT_EQ(stats.config_hits + stats.config_misses, stats.completed);
  EXPECT_EQ(stats.affinity_routed + stats.affinity_fallback, stats.submitted);

  std::uint64_t per_card_completed = 0, per_card_dispatched = 0;
  for (const auto& card : stats.cards) {
    per_card_completed += card.server.completed;
    per_card_dispatched += card.dispatched;
    EXPECT_EQ(card.queue_depth, 0u);
    if (card.server.completed > 0) {  // an idle card's summary is all zeros
      EXPECT_LE(stats.latency.min, card.server.latency.min);
      EXPECT_GE(stats.latency.max, card.server.latency.max);
    }
  }
  EXPECT_EQ(per_card_completed, stats.completed);
  EXPECT_EQ(per_card_dispatched, stats.submitted);
  EXPECT_GT(stats.throughput_rps, 0.0);
  EXPECT_LE(stats.latency.p50, stats.latency.p99);
}

TEST(CoprocessorFleetTest, ClosedLoopReplayDrivesTheFleet) {
  workload::MultiClientConfig wc;
  wc.clients = 6;
  wc.requests_per_client = 4;
  wc.functions = algorithms::function_bank();
  wc.seed = 41;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  wc.mean_think_time = sim::SimTime::us(15);
  const auto trace = workload::make_multi_client(wc);

  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kLeastQueued;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const std::size_t primed = workload::replay(fleet, trace, request_input);
  EXPECT_EQ(primed, wc.clients);  // one outstanding request per client
  fleet.run();
  EXPECT_EQ(fleet.stats().completed, wc.clients * wc.requests_per_client);
}

TEST(CoprocessorFleetTest, InFlightCountsDirectServerSubmissions) {
  FleetConfig fc;
  fc.cards = 2;
  CoprocessorFleet fleet(fc);
  fleet.download(KernelId::kCrc32);
  const auto fn = algorithms::function_id(KernelId::kCrc32);

  // One request through the dispatcher, one bypassing it straight into a
  // card's server — both count, and the tally drains to zero.
  fleet.submit(0, KernelId::kCrc32, request_input(fn, 1, 1));
  fleet.server(1).submit(0, KernelId::kCrc32, request_input(fn, 1, 2));
  EXPECT_EQ(fleet.in_flight(), 2u);
  fleet.run();
  EXPECT_EQ(fleet.in_flight(), 0u);
  const auto stats = fleet.stats();
  EXPECT_EQ(stats.submitted, 2u);  // the direct submission counts too
  EXPECT_EQ(stats.completed, 2u);
}

TEST(CoprocessorFleetTest, PolicyNamesRoundTrip) {
  EXPECT_STREQ(to_string(DispatchPolicy::kRoundRobin), "round-robin");
  EXPECT_STREQ(to_string(DispatchPolicy::kLeastQueued), "least-queued");
  EXPECT_STREQ(to_string(DispatchPolicy::kResidencyAffinity),
               "residency-affinity");
  EXPECT_STREQ(to_string(DevicePolicy::kFifo), "fifo");
  EXPECT_STREQ(to_string(DevicePolicy::kResidentFirst), "resident-first");
  EXPECT_STREQ(to_string(DevicePolicy::kShortestReconfigFirst),
               "shortest-reconfig-first");
}

TEST(CoprocessorFleetTest, DevicePolicyComposesWithDispatchPolicy) {
  // Dispatch picks the card, the device policy orders that card's ready
  // queue: the FleetConfig.server knobs reach every shard, the run
  // completes, and the overlap accounting aggregates fleet-wide.
  const auto trace = skewed_trace(31);
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server.device_policy = DevicePolicy::kResidentFirst;
  fc.server.overlap_reconfig = true;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  for (unsigned i = 0; i < fleet.card_count(); ++i) {
    EXPECT_EQ(fleet.server(i).config().device_policy,
              DevicePolicy::kResidentFirst);
    EXPECT_TRUE(fleet.server(i).config().overlap_reconfig);
  }
  workload::replay(fleet, trace, request_input);
  fleet.run();

  const auto stats = fleet.stats();
  EXPECT_EQ(stats.completed, trace.total_requests());
  EXPECT_EQ(stats.total_device_wait,
            stats.total_engine_wait + stats.total_fabric_wait);
  // Per-card hidden-reconfig sums equal the fleet-wide total.
  sim::SimTime hidden;
  std::uint64_t overlapped = 0;
  for (const auto& card : stats.cards) {
    hidden += card.server.total_hidden_reconfig;
    overlapped += card.server.overlapped_loads;
  }
  EXPECT_EQ(stats.total_hidden_reconfig, hidden);
  EXPECT_EQ(stats.overlapped_loads, overlapped);
}

TEST(CoprocessorFleetTest, SingleCardFleetBitExactUnderReorderingPolicy) {
  // The dispatch hop stays timing-neutral for every ServerConfig, not just
  // the FIFO default.
  const auto trace = skewed_trace(37);
  ServerConfig sc;
  sc.device_policy = DevicePolicy::kShortestReconfigFirst;
  sc.overlap_reconfig = true;

  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card, sc);
  workload::replay(server, trace, request_input);
  server.run();

  FleetConfig fc;
  fc.cards = 1;
  fc.server = sc;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();

  const auto a = server.stats();
  const auto b = fleet.stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.total_hidden_reconfig, b.total_hidden_reconfig);
  EXPECT_EQ(a.total_engine_wait, b.total_engine_wait);
  EXPECT_EQ(a.total_fabric_wait, b.total_fabric_wait);
}

TEST(CoprocessorFleetTest, CostRoutingSteersToTheCheapestDeltaCard) {
  // Two versions of a 12-frame behavioral function differing in 2 frames.
  const auto& spec = algorithms::spec(KernelId::kXtea);
  bitstream::SynthParams params;
  params.frames = 12;
  params.seed = 21;
  bitstream::Bitstream v0 = bitstream::synthesize_behavioral(
      spec.name, algorithms::function_id(KernelId::kXtea), spec.input_width,
      spec.output_width, fabric::FrameGeometry{}, params);
  params.seed = 22;
  const bitstream::Bitstream alt = bitstream::synthesize_behavioral(
      spec.name, algorithms::function_id(KernelId::kXtea), spec.input_width,
      spec.output_width, fabric::FrameGeometry{}, params);
  bitstream::Bitstream v1 = v0;
  for (unsigned d = 0; d < 2; ++d) v1.frames[d] = alt.frames[d];

  auto make_fleet = [&](bool cost_routing) {
    FleetConfig fc;
    fc.cards = 2;
    fc.policy = DispatchPolicy::kResidencyAffinity;
    fc.cost_routing = cost_routing;
    fc.card.mcu.engine.delta_reconfig = true;
    auto fleet = std::make_unique<CoprocessorFleet>(fc);
    fleet->download_bitstream(9000, v0);
    fleet->download_bitstream(9001, v1);
    // Card 1 ran v0 and evicted it: its fabric still holds v0's frames, so
    // loading v1 there streams only the 2 dirty frames.  Card 0 is cold.
    fleet->card(1).mcu().ensure_loaded(9000);
    fleet->card(1).mcu().evict(9000);
    return fleet;
  };

  // Cost routing: no card is resident for v1, but card 1's delta estimate
  // is far below a cold load, so the tier-3 router picks it.
  auto fleet = make_fleet(true);
  EXPECT_EQ(fleet->preview_card(9001), 1u);
  fleet->submit_function(0, 9001, spec.make_input(2, 1));
  fleet->run();
  const auto stats = fleet->stats();
  EXPECT_EQ(stats.delta_routed, 1u);
  EXPECT_EQ(stats.affinity_fallback, 0u);
  EXPECT_EQ(stats.frames_skipped_delta, 10u);  // only 2 of 12 streamed

  // Binary residency check only: v1 is resident nowhere, so the request
  // falls back to least-queued — the cold card 0, paying the full load.
  auto binary = make_fleet(false);
  EXPECT_EQ(binary->preview_card(9001), 0u);
  binary->submit_function(0, 9001, spec.make_input(2, 1));
  binary->run();
  EXPECT_EQ(binary->stats().delta_routed, 0u);
  EXPECT_EQ(binary->stats().affinity_fallback, 1u);
}

TEST(CoprocessorFleetTest, SubmitInThePastThrows) {
  FleetConfig fc;
  fc.cards = 1;
  CoprocessorFleet fleet(fc);
  fleet.download(KernelId::kXtea);
  const auto fn = algorithms::function_id(KernelId::kXtea);
  fleet.submit(0, KernelId::kXtea, request_input(fn, 1, 1));
  fleet.run();
  EXPECT_THROW(
      fleet.submit_function_at(sim::SimTime::zero(), 0, fn,
                               request_input(fn, 1, 2)),
      Error);
}

TEST(CoprocessorFleetTest, UnknownFunctionThrowsAtSubmit) {
  FleetConfig fc;
  fc.cards = 2;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto fn = algorithms::function_id(KernelId::kXtea);
  const std::uint64_t first = fleet.submit(0, KernelId::kXtea,
                                           request_input(fn, 1, 1));
  const std::size_t pending = fleet.sim_pending();
  const std::uint64_t in_flight = fleet.in_flight();
  try {
    fleet.submit_function(0, 9999, request_input(fn, 1, 2));
    FAIL() << "expected NotFound";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
  EXPECT_EQ(fleet.sim_pending(), pending);
  EXPECT_EQ(fleet.in_flight(), in_flight);
  EXPECT_EQ(fleet.submit(0, KernelId::kXtea, request_input(fn, 1, 3)),
            first + 1);
  fleet.run();
  EXPECT_EQ(fleet.stats().completed, 2u);
}

TEST(CoprocessorFleetTest, ZeroCardsThrows) {
  FleetConfig fc;
  fc.cards = 0;
  EXPECT_THROW(CoprocessorFleet{fc}, Error);
}

TEST(CoprocessorFleetTest, MoreThanOneThreadThrows) {
  FleetConfig fc;
  fc.threads = 2;
  EXPECT_THROW(CoprocessorFleet{fc}, Error);
}


// A fleet card's server is live for the fleet's lifetime, so the card's
// synchronous invoke throws kInvalidArgument even while the fleet is
// quiescent, and runs nothing: the fleet's stats still conserve and no
// card's clock or bus grants move.  preload and evict stay allowed.
TEST(CoprocessorFleetTest, CardInvokeThrowsWhileTheFleetServes) {
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kRoundRobin;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto xtea = [](std::uint64_t seed) {
    return algorithms::spec(KernelId::kXtea).make_input(1, seed);
  };
  for (unsigned i = 0; i < 4; ++i) fleet.submit(i, KernelId::kXtea, xtea(i));
  fleet.run();
  const FleetStats before = fleet.stats();
  ASSERT_EQ(before.submitted, 4u);
  const sim::SimTime now = fleet.now();
  const std::uint64_t grants0 = fleet.card(0).bus().stats().grants;
  const std::uint64_t grants1 = fleet.card(1).bus().stats().grants;

  try {
    fleet.card(0).invoke(KernelId::kXtea, xtea(9));
    FAIL() << "expected kInvalidArgument";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }

  const FleetStats after = fleet.stats();
  EXPECT_EQ(static_cast<const ServerStats&>(after),
            static_cast<const ServerStats&>(before));
  EXPECT_EQ(after.submitted, after.completed + after.failed);
  EXPECT_EQ(after.completed, 4u);
  EXPECT_EQ(after.batches, 4u);
  EXPECT_EQ(fleet.now(), now);
  EXPECT_EQ(fleet.card(0).bus().stats().grants, grants0);
  EXPECT_EQ(fleet.card(1).bus().stats().grants, grants1);

  EXPECT_FALSE(fleet.card(0).preload(KernelId::kSha256).hit);
  fleet.card(0).evict(KernelId::kSha256);
  EXPECT_FALSE(fleet.card(0).mcu().is_resident(
      algorithms::function_id(KernelId::kSha256)));
}

}  // namespace
}  // namespace aad::core
