// Tests for same-function request batching (BatchMode in core/server.h):
// the none mode serves every request as a batch of one (bit-exact with the
// unbatched server), greedy drains the same-function queue behind one
// decode + load and splits it at kMaxBatch, the windowed mode degenerates
// to no-batch on a lone request, coalesces late arrivals inside its
// horizon and commits early once kMaxBatch requests wait, an overlapped
// load under eviction pressure mid-batch keeps the batch's function until
// its last window ends, and a single-card fleet with batching is bit-exact
// with a bare CoprocessorServer.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <vector>

#include "core/fleet.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

using algorithms::KernelId;

Bytes kernel_input(KernelId id, std::size_t blocks, std::uint64_t seed) {
  return algorithms::spec(id).make_input(blocks, seed);
}

Bytes request_input(workload::FunctionId fn, std::size_t blocks,
                    std::size_t index) {
  return algorithms::bank_input(fn, blocks, index);
}

workload::MultiClientTrace bursty_trace(std::uint64_t seed) {
  workload::BurstyConfig bc;
  bc.clients = 4;
  bc.bursts = 3;
  bc.burst_size = 4;
  bc.functions = algorithms::function_bank();
  bc.seed = seed;
  bc.payload_blocks = 2;
  bc.zipf_s = 0.5;
  bc.mean_intra_gap = sim::SimTime::us(20);
  bc.mean_inter_gap = sim::SimTime::us(150);
  return workload::make_bursty(bc);
}

TEST(BatchPolicyTest, ModeNamesRoundTrip) {
  EXPECT_STREQ(to_string(BatchMode::kNone), "none");
  EXPECT_STREQ(to_string(BatchMode::kGreedy), "greedy");
  EXPECT_STREQ(to_string(BatchMode::kWindowed), "windowed");
}

TEST(BatchPolicyTest, NonePolicyServesEveryRequestAsBatchOfOne) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);  // default config: BatchMode::kNone
  ASSERT_EQ(server.config().batch.mode, BatchMode::kNone);
  workload::replay(server, bursty_trace(11), request_input);
  server.run();

  const auto stats = server.stats();
  ASSERT_GT(stats.completed, 0u);
  EXPECT_EQ(stats.batches, stats.completed);  // one commit per request
  EXPECT_EQ(stats.coalesced_loads, 0u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 1.0);
  EXPECT_EQ(stats.total_amortized_reconfig, sim::SimTime::zero());
  for (const ServerRequest& r : server.completed()) {
    EXPECT_EQ(r.batch_size, 1u);
    EXPECT_FALSE(r.coalesced_load);
  }
}

TEST(BatchPolicyTest, GreedyDrainsSameFunctionQueueBehindOneLoad) {
  // A long COLD blocker owns the config engine (18-frame ModExp load) and
  // then the fabric while four cold SHA-256 requests queue up; greedy
  // drains all four into one batch: one leader paying the decode + load,
  // three coalesced followers running back-to-back fabric windows.
  const Bytes blocker = kernel_input(KernelId::kModExp, 8, 1);
  AgileCoprocessor card;
  card.download(KernelId::kModExp);
  card.download(KernelId::kSha256);
  ServerConfig sc;
  sc.batch.mode = BatchMode::kGreedy;
  CoprocessorServer server(card, sc);
  server.submit(0, KernelId::kModExp, blocker);
  std::vector<Bytes> inputs;
  for (unsigned c = 0; c < 4; ++c) {
    inputs.push_back(kernel_input(KernelId::kSha256, 4, 10 + c));
    server.submit(1 + c, KernelId::kSha256, inputs.back());
  }
  server.run();

  std::vector<const ServerRequest*> batch;
  for (const ServerRequest& r : server.completed())
    if (r.function == algorithms::function_id(KernelId::kSha256))
      batch.push_back(&r);
  ASSERT_EQ(batch.size(), 4u);
  std::sort(batch.begin(), batch.end(),
            [](const ServerRequest* a, const ServerRequest* b) {
              return a->fabric_start < b->fabric_start;
            });

  const ServerRequest* leader = batch.front();
  EXPECT_FALSE(leader->coalesced_load);
  EXPECT_FALSE(leader->load.hit);  // the one real load
  EXPECT_GT(leader->prepare_time, sim::SimTime::zero());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i]->batch_id, leader->batch_id);
    EXPECT_EQ(batch[i]->batch_size, 4u);
    if (i > 0) {
      EXPECT_TRUE(batch[i]->coalesced_load);
      EXPECT_TRUE(batch[i]->load.hit);  // rode the leader's load
      EXPECT_EQ(batch[i]->decode_time, sim::SimTime::zero());
      EXPECT_EQ(batch[i]->prepare_time, sim::SimTime::zero());
      // Back-to-back fabric windows: no gap behind the predecessor.
      EXPECT_EQ(batch[i]->fabric_start,
                batch[i - 1]->fabric_start + batch[i - 1]->execute_time);
    }
    // Outputs stay bit-exact with the host software baseline.
    EXPECT_EQ(batch[i]->output,
              algorithms::spec(KernelId::kSha256)
                  .software(inputs[batch[i]->client - 1]));
  }

  const auto stats = server.stats();
  EXPECT_EQ(stats.coalesced_loads, 3u);
  EXPECT_EQ(stats.total_amortized_reconfig, leader->prepare_time * 3);
}

TEST(BatchPolicyTest, GreedySplitsALongQueueAtTheBatchCap) {
  // Twenty cold SHA-256 requests queue behind a cold ModExp blocker; when
  // the engine frees, greedy drains the first kMaxBatch (16) of them, in
  // arrival order, behind one load, and the remaining four form a second
  // batch.
  AgileCoprocessor card;
  card.download(KernelId::kModExp);
  card.download(KernelId::kSha256);
  ServerConfig sc;
  sc.batch.mode = BatchMode::kGreedy;
  CoprocessorServer server(card, sc);
  server.submit(0, KernelId::kModExp, kernel_input(KernelId::kModExp, 8, 1));
  constexpr unsigned kQueued = 20;
  for (unsigned c = 1; c <= kQueued; ++c)
    server.submit(c, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, c));
  server.run();

  std::map<std::uint64_t, std::vector<unsigned>> batches;  // id -> clients
  for (const ServerRequest& r : server.completed())
    if (r.function == algorithms::function_id(KernelId::kSha256)) {
      batches[r.batch_id].push_back(r.client);
      EXPECT_EQ(r.batch_size, r.client <= kMaxBatch ? kMaxBatch : 4u);
    }
  ASSERT_EQ(batches.size(), 2u);
  std::vector<unsigned> first = batches.begin()->second;
  std::vector<unsigned> second = std::next(batches.begin())->second;
  std::sort(first.begin(), first.end());
  std::sort(second.begin(), second.end());
  ASSERT_EQ(first.size(), kMaxBatch);
  EXPECT_EQ(first.front(), 1u);
  EXPECT_EQ(first.back(), 16u);
  EXPECT_EQ(second, (std::vector<unsigned>{17, 18, 19, 20}));
  EXPECT_EQ(server.stats().coalesced_loads, (kMaxBatch - 1) + 3);
}

TEST(BatchPolicyTest, WindowedCommitsTheInstantTheBatchCapIsQueued) {
  // A long horizon, and kMaxBatch + 1 same-function requests arriving
  // back to back on an idle card: the hold opened by the first commits the
  // instant the 16th is queued, well before the horizon.  The 17th reaches
  // the device after that commit, opens its own hold once the engine is
  // free, and commits alone when that hold's window runs out.
  AgileCoprocessor card;
  card.download(KernelId::kSha256);
  ServerConfig sc;
  sc.batch.mode = BatchMode::kWindowed;
  sc.batch.window = sim::SimTime::ms(5);
  CoprocessorServer server(card, sc);
  for (unsigned c = 0; c <= kMaxBatch; ++c)
    server.submit(c, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, c));
  server.run();

  ASSERT_EQ(server.completed().size(), kMaxBatch + 1);
  std::vector<ServerRequest> requests(server.completed().begin(),
                                      server.completed().end());
  std::sort(requests.begin(), requests.end(),
            [](const ServerRequest& a, const ServerRequest& b) {
              return a.device_ready() < b.device_ready();
            });
  const ServerRequest& opener = requests.front();
  const ServerRequest& capper = requests[kMaxBatch - 1];
  const ServerRequest& late = requests.back();
  for (std::size_t i = 0; i < kMaxBatch; ++i) {
    EXPECT_EQ(requests[i].batch_id, opener.batch_id);
    EXPECT_EQ(requests[i].batch_size, kMaxBatch);
    EXPECT_EQ(requests[i].device_start, capper.device_ready());
  }
  EXPECT_LT(capper.device_ready(), opener.device_ready() + sc.batch.window);
  EXPECT_GT(late.device_ready(), capper.device_ready());
  EXPECT_EQ(late.batch_size, 1u);
  // The 17th became the pick when the batch's load freed the engine, and
  // its own horizon runs from there.
  EXPECT_EQ(late.device_start,
            opener.device_start + opener.prepare_time + sc.batch.window);
}

TEST(BatchPolicyTest, WindowExpiryWithSingleRequestDegeneratesToNoBatch) {
  // One lone request under the windowed policy: nothing coalesces, the
  // hold expires, and the request commits as a batch of one — delayed by
  // exactly the window, never starved.
  const Bytes input = kernel_input(KernelId::kSha256, 8, 5);
  const auto run_once = [&](BatchMode mode, sim::SimTime window) {
    AgileCoprocessor card;
    card.download(KernelId::kSha256);
    ServerConfig sc;
    sc.batch.mode = mode;
    sc.batch.window = window;
    CoprocessorServer server(card, sc);
    server.submit(0, KernelId::kSha256, input);
    server.run();
    return server.completed().front();
  };

  const sim::SimTime window = sim::SimTime::us(40);
  const ServerRequest none = run_once(BatchMode::kNone, window);
  const ServerRequest windowed = run_once(BatchMode::kWindowed, window);

  EXPECT_EQ(windowed.batch_size, 1u);
  EXPECT_FALSE(windowed.coalesced_load);
  // The only difference is the hold: the engine window starts one horizon
  // later, and everything downstream shifts rigidly with it.
  EXPECT_EQ(windowed.device_start, none.device_start + window);
  EXPECT_EQ(windowed.complete_time, none.complete_time + window);
  EXPECT_EQ(windowed.prepare_time, none.prepare_time);
  EXPECT_EQ(windowed.execute_time, none.execute_time);
  EXPECT_EQ(windowed.output, none.output);
}

TEST(BatchPolicyTest, WindowedCoalescesArrivalsInsideTheHorizon) {
  // Request 1 reaches the device and the windowed policy holds; request 2
  // for the same function arrives inside the horizon and joins the batch.
  const Bytes input_a = kernel_input(KernelId::kSha256, 8, 6);
  const Bytes input_b = kernel_input(KernelId::kSha256, 8, 7);
  AgileCoprocessor card;
  card.download(KernelId::kSha256);
  ServerConfig sc;
  sc.batch.mode = BatchMode::kWindowed;
  sc.batch.window = sim::SimTime::us(200);
  CoprocessorServer server(card, sc);
  server.submit(0, KernelId::kSha256, input_a);
  server.submit_function_at(server.now() + sim::SimTime::us(50), 1,
                            algorithms::function_id(KernelId::kSha256),
                            input_b);
  server.run();

  ASSERT_EQ(server.completed().size(), 2u);
  const auto stats = server.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.coalesced_loads, 1u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 2.0);
  for (const ServerRequest& r : server.completed()) {
    EXPECT_EQ(r.batch_size, 2u);
    EXPECT_EQ(r.output, algorithms::spec(KernelId::kSha256)
                            .software(r.client == 0 ? input_a : input_b));
  }
}

TEST(BatchPolicyTest, WindowedHoldSurvivesThePickMovingToAnotherFunction) {
  // Composing windowed batching with a resident-first device policy:
  // cold MatMul opens a hold, then a resident SHA-256 request arrives and
  // resident-first re-picks SHA-256 mid-hold, opening a second hold.
  // MatMul's horizon anchor must survive that interleaving — measured
  // from the FIRST time it became the pick — and its hold must expire on
  // its own clock even while SHA-256 is the pick: MatMul commits the
  // instant its window runs out, instead of waiting for the pick to
  // bounce back (which would let every resident arrival defer it by
  // another full window, unbounded).
  AgileCoprocessor card;
  card.download(KernelId::kSha256);
  card.download(KernelId::kMatMul);
  const auto sha = algorithms::function_id(KernelId::kSha256);
  const auto matmul = algorithms::function_id(KernelId::kMatMul);

  ServerConfig sc;
  sc.device_policy = DevicePolicy::kResidentFirst;
  sc.batch.mode = BatchMode::kWindowed;
  sc.batch.window = sim::SimTime::us(100);
  CoprocessorServer server(card, sc);
  // Warm SHA-256 so resident-first has something to jump the queue with.
  server.submit(0, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, 1));
  server.run();

  server.submit(1, KernelId::kMatMul, kernel_input(KernelId::kMatMul, 2, 2));
  server.submit_function_at(server.now() + sim::SimTime::us(30), 2, sha,
                            kernel_input(KernelId::kSha256, 2, 3));
  server.run();

  const ServerRequest* mm = nullptr;
  const ServerRequest* warm_sha = nullptr;
  for (const ServerRequest& r : server.completed()) {
    if (r.function == matmul) mm = &r;
    if (r.client == 2 && r.function == sha) warm_sha = &r;
  }
  ASSERT_NE(mm, nullptr);
  ASSERT_NE(warm_sha, nullptr);
  // SHA-256 reached the device later and was the resident-first pick when
  // MatMul's horizon ran out.
  EXPECT_GT(warm_sha->device_ready(), mm->device_ready());
  // MatMul commits exactly one window after it FIRST became the pick —
  // its anchor survived SHA-256 stealing the pick, and its expiry
  // overrode SHA-256's still-open hold.
  EXPECT_EQ(mm->device_start, mm->device_ready() + sc.batch.window);
  // SHA-256's own expired hold then takes the engine the moment MatMul's
  // engine window releases it.
  EXPECT_EQ(warm_sha->device_start, mm->device_start + mm->prepare_time);
}

TEST(BatchPolicyTest, EvictionPressureMidBatchKeepsTheFunctionResident) {
  // A SHA-256 batch owns the fabric; mid-batch, a cold MatMul load
  // streams through the engine (overlapped reconfiguration) on a full
  // device, forcing the eviction loop.  The Belady oracle is told SHA-256
  // is never used again, so it is the victim of choice — but its windows
  // are still open at the load's start, so the load keeps it and evicts
  // FFT instead: SHA-256 stays resident until its last window ends.
  CoprocessorConfig cc;
  cc.mcu.policy = mcu::PolicyKind::kBelady;
  AgileCoprocessor card(cc);
  card.download(KernelId::kSha256);   // 10 frames
  card.download(KernelId::kAes128);   // 12 frames
  card.download(KernelId::kFft);      // 16 frames
  card.download(KernelId::kMatMul);   // 14 frames: 38 resident + 14 > 48
  const auto sha = algorithms::function_id(KernelId::kSha256);
  const auto matmul = algorithms::function_id(KernelId::kMatMul);

  ServerConfig sc;
  sc.batch.mode = BatchMode::kGreedy;
  CoprocessorServer server(card, sc);
  // Make AES + FFT resident so MatMul's load has eviction candidates.
  server.submit(0, KernelId::kAes128, kernel_input(KernelId::kAes128, 2, 1));
  server.submit(0, KernelId::kFft, kernel_input(KernelId::kFft, 2, 2));
  server.run();
  card.mcu().set_future({matmul, algorithms::function_id(KernelId::kAes128),
                         algorithms::function_id(KernelId::kFft)});

  // Three long SHA-256 requests (big payloads keep the fabric busy while
  // the MatMul load streams): the first commits alone with the load, the
  // next two as a batch behind it.
  std::vector<Bytes> sha_inputs;
  for (unsigned c = 0; c < 3; ++c) {
    sha_inputs.push_back(kernel_input(KernelId::kSha256, 256, 20 + c));
    server.submit(1 + c, KernelId::kSha256, sha_inputs.back());
  }
  const Bytes mm_input = kernel_input(KernelId::kMatMul, 2, 9);
  server.submit(4, KernelId::kMatMul, mm_input);

  // Step the event loop, noting when MatMul is resident and whether
  // SHA-256 still is; the windows are known once the run is over.
  struct Sample {
    sim::SimTime at;
    bool sha_resident;
  };
  std::vector<Sample> with_matmul;
  while (server.in_flight() > 0) {
    server.run_until(server.now() + sim::SimTime::us(20));
    if (card.mcu().is_resident(matmul))
      with_matmul.push_back({server.now(), card.mcu().is_resident(sha)});
  }

  // The load had to evict on a full device — and could not touch the
  // kept batch function.
  ASSERT_EQ(server.completed().size(), 6u);
  sim::SimTime last_sha_window;
  unsigned coalesced = 0;
  for (const ServerRequest& r : server.completed()) {
    if (r.function == matmul) {
      EXPECT_EQ(r.load.evictions, 1u);  // FFT, not SHA-256
    }
    if (r.function == sha) {
      coalesced += r.coalesced_load ? 1 : 0;
      EXPECT_EQ(r.output,
                algorithms::spec(KernelId::kSha256)
                    .software(sha_inputs[r.client - 1]));
      last_sha_window =
          std::max(last_sha_window, r.fabric_start + r.execute_time);
    }
  }
  EXPECT_GT(coalesced, 0u) << "no SHA-256 batch formed";
  unsigned mid_batch = 0;
  for (const Sample& sample : with_matmul) {
    if (sample.at >= last_sha_window) continue;
    ++mid_batch;
    EXPECT_TRUE(sample.sha_resident)
        << "SHA-256 evicted at " << sample.at.nanoseconds()
        << " ns, before its last window ended";
  }
  EXPECT_GT(mid_batch, 0u) << "MatMul load never committed mid-batch";
  EXPECT_TRUE(card.mcu().is_resident(sha));
}

TEST(BatchPolicyTest, SingleCardFleetWithBatchingIsBitExactWithServer) {
  // FleetConfig::server threads the batch mode through to every shard;
  // a one-card fleet running greedy batching must reproduce the bare
  // server's timings event for event.
  const auto trace = bursty_trace(23);
  ServerConfig sc;
  sc.batch.mode = BatchMode::kGreedy;

  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card, sc);
  workload::replay(server, trace, request_input);
  server.run();

  FleetConfig fc;
  fc.cards = 1;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server = sc;
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();

  ASSERT_EQ(fleet.server(0).config().batch.mode, BatchMode::kGreedy);
  const auto& direct = server.completed();
  const auto& sharded = fleet.server(0).completed();
  ASSERT_EQ(direct.size(), sharded.size());
  for (std::size_t i = 0; i < direct.size(); ++i) {
    EXPECT_EQ(direct[i].client, sharded[i].client);
    EXPECT_EQ(direct[i].function, sharded[i].function);
    EXPECT_EQ(direct[i].output, sharded[i].output);
    EXPECT_EQ(direct[i].submit_time, sharded[i].submit_time);
    EXPECT_EQ(direct[i].complete_time, sharded[i].complete_time);
    EXPECT_EQ(direct[i].batch_id, sharded[i].batch_id);
    EXPECT_EQ(direct[i].batch_size, sharded[i].batch_size);
    EXPECT_EQ(direct[i].coalesced_load, sharded[i].coalesced_load);
  }
  const auto a = server.stats();
  const auto b = fleet.stats();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.coalesced_loads, b.coalesced_loads);
  EXPECT_EQ(a.total_amortized_reconfig, b.total_amortized_reconfig);
}

TEST(BatchPolicyTest, OpenBatchRoutingSteersSameFunctionToTheHoldingCard) {
  // Card 0 starts a windowed hold for SHA-256; even once its queue is
  // longer than card 1's, the affinity router keeps steering SHA-256
  // arrivals to card 0 — they join the open batch and share its load.
  FleetConfig fc;
  fc.cards = 2;
  fc.policy = DispatchPolicy::kResidencyAffinity;
  fc.server.batch.mode = BatchMode::kWindowed;
  fc.server.batch.window = sim::SimTime::ms(5);  // hold long enough to probe
  CoprocessorFleet fleet(fc);
  fleet.download_all();
  const auto sha = algorithms::function_id(KernelId::kSha256);

  fleet.submit(0, KernelId::kSha256, kernel_input(KernelId::kSha256, 4, 1));
  // Step until the request reaches card 0's device stage and the windowed
  // policy opens the hold.
  bool open = false;
  for (int step = 0; step < 10000 && !open; ++step) {
    fleet.run_until(fleet.now() + sim::SimTime::us(5));
    open = fleet.server(0).open_batch_for(sha);
  }
  ASSERT_TRUE(open) << "windowed policy never opened a batch hold";

  // The open batch outranks least-queued: card 0 wins for SHA-256 even
  // with the deeper queue, while other functions still balance away.
  EXPECT_EQ(fleet.preview_card(sha), 0u);
  const auto id_b = fleet.submit(1, KernelId::kSha256,
                                 kernel_input(KernelId::kSha256, 4, 2));
  (void)id_b;
  fleet.run();

  const auto stats = fleet.stats();
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.coalesced_loads, 1u);  // the second request joined
  EXPECT_EQ(stats.cards[0].server.completed, 2u);
  EXPECT_EQ(stats.cards[1].server.completed, 0u);
}

}  // namespace
}  // namespace aad::core
