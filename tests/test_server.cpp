// Tests for the event-driven CoprocessorServer: requests from multiple
// logical clients overlap on the card (PCI transfers during reconfiguration
// / execution), outputs stay bit-exact with the host baseline, and the
// latency/throughput statistics are coherent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "bitstream/synth.h"
#include "core/fleet.h"
#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace aad::core {
namespace {

using algorithms::KernelId;

Bytes kernel_input(KernelId id, std::size_t blocks, std::uint64_t seed) {
  return algorithms::spec(id).make_input(blocks, seed);
}

TEST(CoprocessorServerTest, TwoClientsOverlapAndStayBitExact) {
  const Bytes input_a = kernel_input(KernelId::kAes128, 16, 7);
  const Bytes input_b = kernel_input(KernelId::kSha256, 16, 8);

  // Baseline: the same two cold requests, strictly sequential through the
  // synchronous API.
  AgileCoprocessor sequential;
  sequential.download(KernelId::kAes128);
  sequential.download(KernelId::kSha256);
  const auto seq_a = sequential.invoke(KernelId::kAes128, input_a);
  const auto seq_b = sequential.invoke(KernelId::kSha256, input_b);
  const sim::SimTime sequential_total = seq_a.latency() + seq_b.latency();

  // Event-driven: both submitted at t=0 by different clients.
  AgileCoprocessor card;
  card.download(KernelId::kAes128);
  card.download(KernelId::kSha256);
  CoprocessorServer server(card);
  server.submit(0, KernelId::kAes128, input_a);
  server.submit(1, KernelId::kSha256, input_b);
  server.run();

  const auto stats = server.stats();
  ASSERT_EQ(stats.completed, 2u);
  // Overlap actually happened: B's input DMA rode the bus while A owned the
  // card, so the combined makespan beats the sequential sum.
  EXPECT_LT(stats.makespan, sequential_total);

  // Outputs identical to the host-only software baseline.
  for (const ServerRequest& r : server.completed()) {
    const KernelId id = static_cast<KernelId>(r.function);
    const ByteSpan in = id == KernelId::kAes128 ? ByteSpan(input_a)
                                                : ByteSpan(input_b);
    EXPECT_EQ(r.output, algorithms::spec(id).software(in));
  }
}

TEST(CoprocessorServerTest, ResidentRequestsPipelineOnTheBus) {
  AgileCoprocessor card;
  card.download(KernelId::kSha256);
  const Bytes input = kernel_input(KernelId::kSha256, 32, 3);

  // Warm single-request latency through the synchronous path.
  AgileCoprocessor reference;
  reference.download(KernelId::kSha256);
  reference.invoke(KernelId::kSha256, input);  // make it resident
  const auto warm = reference.invoke(KernelId::kSha256, input);

  CoprocessorServer server(card);
  server.submit(0, KernelId::kSha256, input);  // cold leader
  server.run();
  const sim::SimTime warm_begin = server.now();
  constexpr int kFollowers = 6;
  for (int i = 0; i < kFollowers; ++i)
    server.submit(static_cast<unsigned>(i), KernelId::kSha256, input);
  server.run();

  // The followers were all warm and their PCI transfers overlapped the
  // card's compute, so the batch beats back-to-back synchronous warm calls.
  const sim::SimTime batch = server.now() - warm_begin;
  EXPECT_LT(batch, warm.latency() * kFollowers);
  EXPECT_EQ(server.stats().completed, 1u + kFollowers);
}

TEST(CoprocessorServerTest, RequestBreakdownIsCoherent) {
  AgileCoprocessor card;
  card.download(KernelId::kCrc32);
  CoprocessorServer server(card);
  const Bytes input = kernel_input(KernelId::kCrc32, 8, 1);
  server.submit(3, KernelId::kCrc32, input);
  server.run();

  ASSERT_EQ(server.completed().size(), 1u);
  const ServerRequest& r = server.completed().front();
  EXPECT_EQ(r.client, 3u);
  EXPECT_FALSE(r.load.hit);
  EXPECT_GT(r.pci_in_time, sim::SimTime::zero());
  EXPECT_GT(r.prepare_time, sim::SimTime::zero());
  EXPECT_GT(r.execute_time, sim::SimTime::zero());
  EXPECT_GT(r.pci_out_time, sim::SimTime::zero());
  // Stage boundaries are ordered and the uncontended single request never
  // waits for a resource.
  EXPECT_EQ(r.bus_wait(), sim::SimTime::zero());
  EXPECT_EQ(r.device_wait(), sim::SimTime::zero());
  EXPECT_EQ(r.pci_in_start, r.submit_time);
  EXPECT_EQ(r.device_start, r.pci_in_start + r.pci_in_time);
  EXPECT_EQ(r.pci_out_start,
            r.device_start + r.prepare_time + r.execute_time);
  EXPECT_EQ(r.complete_time, r.pci_out_start + r.pci_out_time);
  EXPECT_EQ(r.latency(), r.pci_in_time + r.prepare_time + r.execute_time +
                             r.pci_out_time);
}

TEST(CoprocessorServerTest, ContendedRequestsWaitAndStaysAccounted) {
  AgileCoprocessor card;
  card.download(KernelId::kMd5);
  CoprocessorServer server(card);
  const Bytes input = kernel_input(KernelId::kMd5, 64, 2);
  for (unsigned c = 0; c < 4; ++c) server.submit(c, KernelId::kMd5, input);
  server.run();

  const auto stats = server.stats();
  ASSERT_EQ(stats.completed, 4u);
  // With four simultaneous arrivals something had to queue somewhere.
  EXPECT_GT(stats.total_bus_wait + stats.total_device_wait,
            sim::SimTime::zero());
  EXPECT_GT(card.bus().stats().grants, 0u);
  // Latencies are monotone in queue position.
  EXPECT_LE(stats.latency.min, stats.latency.p50);
  EXPECT_LE(stats.latency.p50, stats.latency.p90);
  EXPECT_LE(stats.latency.p90, stats.latency.p99);
  EXPECT_LE(stats.latency.p99, stats.latency.max);
  EXPECT_LE(stats.latency.min, stats.latency.mean);
  EXPECT_LE(stats.latency.mean, stats.latency.max);
  EXPECT_GT(stats.throughput_rps, 0.0);
}

// A server counts from its own construction, not from the card's first
// server: the synchronous invoke before it is its own one-request server.
TEST(CoprocessorServerTest, ServerOnAReusedCardCountsFromZero) {
  AgileCoprocessor card;
  card.download(KernelId::kMd5);
  const Bytes input = kernel_input(KernelId::kMd5, 4, 3);
  card.invoke(KernelId::kMd5, input);

  CoprocessorServer server(card);
  const ServerStats fresh = server.stats();
  EXPECT_EQ(fresh.submitted, 0u);
  EXPECT_EQ(fresh.completed, 0u);
  EXPECT_EQ(fresh.failed, 0u);
  EXPECT_EQ(fresh.cancelled, 0u);
  EXPECT_EQ(fresh.batches, 0u);

  for (unsigned c = 0; c < 3; ++c) server.submit(c, KernelId::kMd5, input);
  server.run();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.submitted, stats.completed + stats.failed + stats.cancelled);
  EXPECT_EQ(stats.batches, 3u);
  // Batch ids stay dense over the card: the invoke took id 0.
  EXPECT_EQ(server.completed().front().batch_id, 1u);
}

TEST(CoprocessorServerTest, CompletionHookFiresAtCompletionTime) {
  AgileCoprocessor card;
  card.download(KernelId::kXtea);
  CoprocessorServer server(card);
  sim::SimTime seen;
  server.submit(0, KernelId::kXtea, kernel_input(KernelId::kXtea, 2, 5),
                [&](const ServerRequest& r) { seen = r.complete_time; });
  server.run();
  EXPECT_EQ(seen, server.completed().front().complete_time);
  EXPECT_EQ(server.in_flight(), 0u);
}

TEST(CoprocessorServerTest, MixedKernelsAllMatchHostBaseline) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);

  std::map<std::uint64_t, std::pair<KernelId, Bytes>> submitted;
  unsigned client = 0;
  for (const auto& spec : algorithms::catalog()) {
    Bytes input = spec.make_input(2, 40 + client);
    const auto id = server.submit(client % 4, spec.id, input);
    submitted.emplace(id, std::make_pair(spec.id, std::move(input)));
    ++client;
  }
  server.run();

  ASSERT_EQ(server.completed().size(), submitted.size());
  for (const ServerRequest& r : server.completed()) {
    const auto& [kernel, input] = submitted.at(r.id);
    EXPECT_EQ(r.output, algorithms::spec(kernel).software(input))
        << algorithms::spec(kernel).name;
  }
}

TEST(CoprocessorServerTest, DeterministicAcrossRuns) {
  auto run_once = [] {
    AgileCoprocessor card;
    card.download_all();
    CoprocessorServer server(card);
    workload::MultiClientConfig wc;
    wc.clients = 3;
    wc.requests_per_client = 8;
    wc.seed = 17;
    wc.zipf_s = 1.0;
    wc.mode = workload::ArrivalMode::kOpenLoop;
    wc.mean_interarrival = sim::SimTime::us(50);
    for (const auto& spec : algorithms::catalog())
      wc.functions.push_back(algorithms::function_id(spec.id));
    const auto trace = workload::make_multi_client(wc);
    workload::replay(server, trace,
                     [](workload::FunctionId fn, std::size_t blocks,
                        std::size_t index) {
                       return algorithms::spec(static_cast<KernelId>(fn))
                           .make_input(blocks, index);
                     });
    server.run();
    return server.stats();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.total_bus_wait, b.total_bus_wait);
}

TEST(CoprocessorServerReplayTest, ClosedLoopKeepsOneRequestPerClient) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);

  workload::MultiClientConfig wc;
  wc.clients = 3;
  wc.requests_per_client = 5;
  wc.seed = 9;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  wc.mean_think_time = sim::SimTime::us(10);
  for (const auto& spec : algorithms::catalog())
    wc.functions.push_back(algorithms::function_id(spec.id));
  const auto trace = workload::make_multi_client(wc);

  const std::size_t primed = workload::replay(
      server, trace,
      [](workload::FunctionId fn, std::size_t blocks, std::size_t index) {
        return algorithms::spec(static_cast<KernelId>(fn))
            .make_input(blocks, index);
      });
  EXPECT_EQ(primed, wc.clients);  // one outstanding request per client
  server.run();

  const auto stats = server.stats();
  EXPECT_EQ(stats.completed, wc.clients * wc.requests_per_client);

  // Closed loop: within a client, request i+1 is submitted only after
  // request i completed.
  std::map<unsigned, std::vector<const ServerRequest*>> by_client;
  for (const ServerRequest& r : server.completed())
    by_client[r.client].push_back(&r);
  for (auto& [client, requests] : by_client) {
    std::sort(requests.begin(), requests.end(),
              [](const ServerRequest* a, const ServerRequest* b) {
                return a->submit_time < b->submit_time;
              });
    for (std::size_t i = 1; i < requests.size(); ++i)
      EXPECT_GE(requests[i]->submit_time, requests[i - 1]->complete_time)
          << "client " << client << " request " << i;
  }
}

TEST(CoprocessorServerReplayTest, OpenLoopArrivalsFollowTheTrace) {
  AgileCoprocessor card;
  card.download(KernelId::kFir16);
  CoprocessorServer server(card);

  workload::MultiClientConfig wc;
  wc.clients = 2;
  wc.requests_per_client = 4;
  wc.seed = 21;
  wc.mode = workload::ArrivalMode::kOpenLoop;
  wc.mean_interarrival = sim::SimTime::us(75);
  wc.functions = {algorithms::function_id(KernelId::kFir16)};
  const auto trace = workload::make_multi_client(wc);

  const sim::SimTime start = server.now();  // replay anchors offsets here
  const std::size_t submitted = workload::replay(
      server, trace,
      [](workload::FunctionId, std::size_t blocks, std::size_t index) {
        return algorithms::spec(KernelId::kFir16).make_input(blocks, index);
      });
  EXPECT_EQ(submitted, trace.total_requests());
  server.run();

  // Every completed request arrived exactly at its trace offset, whether or
  // not the card was keeping up.
  std::map<unsigned, std::vector<sim::SimTime>> arrivals;
  for (const ServerRequest& r : server.completed())
    arrivals[r.client].push_back(r.submit_time);
  for (auto& [client, times] : arrivals) std::sort(times.begin(), times.end());
  for (const auto& ct : trace.clients) {
    ASSERT_EQ(arrivals.at(ct.client).size(), ct.requests.size());
    for (std::size_t i = 0; i < ct.requests.size(); ++i)
      EXPECT_EQ(arrivals.at(ct.client)[i], start + ct.requests[i].offset)
          << "client " << ct.client << " request " << i;
  }
}

TEST(SummarizeLatenciesTest, EmptySampleIsAllZero) {
  const LatencySummary s = summarize_latencies({});
  EXPECT_EQ(s.min, sim::SimTime::zero());
  EXPECT_EQ(s.mean, sim::SimTime::zero());
  EXPECT_EQ(s.p50, sim::SimTime::zero());
  EXPECT_EQ(s.p90, sim::SimTime::zero());
  EXPECT_EQ(s.p99, sim::SimTime::zero());
  EXPECT_EQ(s.max, sim::SimTime::zero());
}

TEST(SummarizeLatenciesTest, SingleSampleIsItsOwnPercentiles) {
  const sim::SimTime t = sim::SimTime::us(42);
  const LatencySummary s = summarize_latencies({t});
  EXPECT_EQ(s.min, t);
  EXPECT_EQ(s.mean, t);
  EXPECT_EQ(s.p50, t);
  EXPECT_EQ(s.p90, t);
  EXPECT_EQ(s.p99, t);
  EXPECT_EQ(s.max, t);
}

TEST(SummarizeLatenciesTest, NearestRankOnSmallSamples) {
  // Nearest-rank: the q-quantile of n samples is sorted[ceil(q*n) - 1].
  // With 10 samples 10us..100us: p50 -> rank 5 (50us), p90 -> rank 9
  // (90us), and p99 -> rank 10 — on any sample smaller than 100 the p99
  // collapses to the max, which is exactly what it should report.
  std::vector<sim::SimTime> sample;
  for (int i = 10; i <= 100; i += 10) sample.push_back(sim::SimTime::us(i));
  const LatencySummary s = summarize_latencies(std::move(sample));
  EXPECT_EQ(s.min, sim::SimTime::us(10));
  EXPECT_EQ(s.mean, sim::SimTime::us(55));
  EXPECT_EQ(s.p50, sim::SimTime::us(50));
  EXPECT_EQ(s.p90, sim::SimTime::us(90));
  EXPECT_EQ(s.p99, sim::SimTime::us(100));
  EXPECT_EQ(s.max, sim::SimTime::us(100));

  // Order of arrival must not matter (the summary sorts its copy).
  const LatencySummary shuffled = summarize_latencies(
      {sim::SimTime::us(30), sim::SimTime::us(10), sim::SimTime::us(20)});
  EXPECT_EQ(shuffled.p50, sim::SimTime::us(20));
  EXPECT_EQ(shuffled.p99, sim::SimTime::us(30));
}

// The acceptance bar for the device-stage split: with the FIFO device
// policy and overlap disabled, the two-resource server must reproduce the
// pre-split single-busy-until-scalar timings exactly.  Those timings are
// fully characterized by the serialized recurrence
//
//   device_start[i] = max(device_ready[i], fabric_end[i-1])
//   fabric_start[i] = device_start[i] + prepare_time[i]   (no gap)
//
// over requests in service order, with all engine/fabric waits folded into
// the single wait-for-the-previous-request term.
TEST(CoprocessorServerRegressionTest, NoOverlapFifoMatchesSerializedDevice) {
  AgileCoprocessor card;
  card.download_all();
  ServerConfig sc;
  sc.device_policy = DevicePolicy::kFifo;
  sc.overlap_reconfig = false;
  CoprocessorServer server(card, sc);

  workload::MultiClientConfig wc;
  wc.clients = 4;
  wc.requests_per_client = 10;
  wc.seed = 29;
  wc.zipf_s = 0.8;
  wc.payload_blocks = 8;
  wc.mode = workload::ArrivalMode::kOpenLoop;
  wc.mean_interarrival = sim::SimTime::us(40);  // overload: queues form
  for (const auto& spec : algorithms::catalog())
    wc.functions.push_back(algorithms::function_id(spec.id));
  const auto trace = workload::make_multi_client(wc);
  workload::replay(server, trace,
                   [](workload::FunctionId fn, std::size_t blocks,
                      std::size_t index) {
                     return algorithms::spec(static_cast<KernelId>(fn))
                         .make_input(blocks, index);
                   });
  server.run();

  std::vector<const ServerRequest*> order;
  for (const ServerRequest& r : server.completed()) order.push_back(&r);
  ASSERT_EQ(order.size(), wc.clients * wc.requests_per_client);
  std::sort(order.begin(), order.end(),
            [](const ServerRequest* a, const ServerRequest* b) {
              return a->device_start < b->device_start;
            });

  sim::SimTime prev_fabric_end;
  for (const ServerRequest* r : order) {
    EXPECT_EQ(r->device_start, std::max(r->device_ready(), prev_fabric_end));
    EXPECT_EQ(r->fabric_start, r->device_start + r->prepare_time);
    EXPECT_EQ(r->fabric_wait, sim::SimTime::zero());
    EXPECT_EQ(r->hidden_reconfig, sim::SimTime::zero());
    prev_fabric_end = r->fabric_start + r->execute_time;
    EXPECT_GE(r->pci_out_start, prev_fabric_end);
  }
  const auto stats = server.stats();
  EXPECT_EQ(stats.total_hidden_reconfig, sim::SimTime::zero());
  EXPECT_EQ(stats.overlapped_loads, 0u);
  EXPECT_EQ(stats.total_fabric_wait, sim::SimTime::zero());
  EXPECT_EQ(stats.total_device_wait, stats.total_engine_wait);
}

TEST(CoprocessorServerOverlapTest, ReconfigurationHidesBehindExecution) {
  // Request A: resident function with a long fabric execution.  Request B:
  // a cold function — with overlap on, B's configuration streams through
  // the engine while A still owns the fabric.
  struct Outcome {
    sim::SimTime makespan, hidden;
    sim::SimTime b_device_start, a_fabric_end;
    Bytes a_output, b_output;
  };
  const Bytes input_a = kernel_input(KernelId::kSha256, 512, 3);
  const Bytes input_b = kernel_input(KernelId::kAes128, 4, 4);
  const auto run_once = [&](bool overlap) {
    AgileCoprocessor card;
    card.download(KernelId::kSha256);
    card.download(KernelId::kAes128);
    ServerConfig sc;
    sc.overlap_reconfig = overlap;
    CoprocessorServer server(card, sc);
    server.submit(0, KernelId::kSha256, input_a);  // long leader
    server.submit(1, KernelId::kAes128, input_b);  // cold follower
    server.run();
    Outcome out;
    const auto stats = server.stats();
    out.makespan = stats.makespan;
    out.hidden = stats.total_hidden_reconfig;
    for (const ServerRequest& r : server.completed()) {
      if (r.client == 0) {
        out.a_fabric_end = r.fabric_start + r.execute_time;
        out.a_output = r.output;
      } else {
        out.b_device_start = r.device_start;
        out.b_output = r.output;
      }
    }
    return out;
  };

  const Outcome serialized = run_once(false);
  const Outcome overlapped = run_once(true);

  // Overlap really happened: B's engine window began while A owned the
  // fabric, reconfiguration time was hidden, and the makespan shrank.
  EXPECT_LT(overlapped.b_device_start, overlapped.a_fabric_end);
  EXPECT_GT(overlapped.hidden, sim::SimTime::zero());
  EXPECT_LT(overlapped.makespan, serialized.makespan);
  EXPECT_EQ(serialized.hidden, sim::SimTime::zero());

  // And it is timing-only: outputs stay bit-exact either way.
  const Bytes want_a = algorithms::spec(KernelId::kSha256).software(input_a);
  const Bytes want_b = algorithms::spec(KernelId::kAes128).software(input_b);
  EXPECT_EQ(serialized.a_output, want_a);
  EXPECT_EQ(overlapped.a_output, want_a);
  EXPECT_EQ(serialized.b_output, want_b);
  EXPECT_EQ(overlapped.b_output, want_b);
}

TEST(CoprocessorServerOverlapTest, EvictionHeavyTraceStaysBitExact) {
  // Overlapped loads evict non-pinned victims while the fabric is busy;
  // every output must still match the host software baseline.
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);  // defaults: FIFO + overlap
  ASSERT_TRUE(server.config().overlap_reconfig);

  std::map<std::uint64_t, std::pair<KernelId, Bytes>> submitted;
  unsigned client = 0;
  for (int round = 0; round < 3; ++round)
    for (const auto& spec : algorithms::catalog()) {
      Bytes input = spec.make_input(4, 60 + client);
      const auto id = server.submit(client % 5, spec.id, input);
      submitted.emplace(id, std::make_pair(spec.id, std::move(input)));
      ++client;
    }
  server.run();

  ASSERT_EQ(server.completed().size(), submitted.size());
  for (const ServerRequest& r : server.completed()) {
    const auto& [kernel, input] = submitted.at(r.id);
    EXPECT_EQ(r.output, algorithms::spec(kernel).software(input))
        << algorithms::spec(kernel).name;
  }
  // The thrash guarantees misses; some of their loads should have hidden
  // behind execution.
  EXPECT_GT(server.stats().total_hidden_reconfig, sim::SimTime::zero());
  EXPECT_GT(server.stats().overlapped_loads, 0u);
}

TEST(CoprocessorServerPolicyTest, ResidentFirstServesHitsBeforeMisses) {
  // A long-running resident request occupies the fabric; while it runs, a
  // miss (AES) and a hit (SHA-256) queue up.  Resident-first serves the
  // hit before the miss; FIFO preserves arrival order.
  const Bytes blocker = kernel_input(KernelId::kSha256, 512, 1);
  const Bytes miss_in = kernel_input(KernelId::kAes128, 4, 2);
  const Bytes hit_in = kernel_input(KernelId::kSha256, 4, 3);
  const auto completion_order = [&](DevicePolicy policy) {
    AgileCoprocessor card;
    card.download(KernelId::kSha256);
    card.download(KernelId::kAes128);
    ServerConfig sc;
    sc.device_policy = policy;
    sc.overlap_reconfig = false;  // serialize: ordering is the observable
    CoprocessorServer server(card, sc);
    server.submit(0, KernelId::kSha256, blocker);  // make resident + occupy
    server.run();
    server.submit(1, KernelId::kSha256, blocker);  // occupy the fabric again
    server.submit(2, KernelId::kAes128, miss_in);  // arrives first: miss
    server.submit(3, KernelId::kSha256, hit_in);   // arrives second: hit
    server.run();
    std::vector<unsigned> clients;
    for (const ServerRequest& r : server.completed())
      clients.push_back(r.client);
    return clients;
  };

  const auto fifo = completion_order(DevicePolicy::kFifo);
  ASSERT_EQ(fifo.size(), 4u);
  EXPECT_EQ(fifo[2], 2u);  // FIFO: the miss keeps its place
  EXPECT_EQ(fifo[3], 3u);

  const auto reordered = completion_order(DevicePolicy::kResidentFirst);
  ASSERT_EQ(reordered.size(), 4u);
  EXPECT_EQ(reordered[2], 3u);  // the hit jumped the miss
  EXPECT_EQ(reordered[3], 2u);
}

TEST(CoprocessorServerPolicyTest, ShortestReconfigFirstPicksSmallFootprint) {
  // Two cold functions queue behind a busy fabric: FFT (16 frames) arrives
  // before SHA-256 (10 frames).  SJF on the reconfiguration estimate
  // serves the smaller footprint first.
  const Bytes blocker = kernel_input(KernelId::kAes128, 512, 1);
  const auto completion_order = [&](DevicePolicy policy) {
    AgileCoprocessor card;
    card.download(KernelId::kAes128);
    card.download(KernelId::kFft);
    card.download(KernelId::kSha256);
    ServerConfig sc;
    sc.device_policy = policy;
    sc.overlap_reconfig = false;
    CoprocessorServer server(card, sc);
    server.submit(0, KernelId::kAes128, blocker);  // make resident + occupy
    server.run();
    server.submit(1, KernelId::kAes128, blocker);
    server.submit(2, KernelId::kFft, kernel_input(KernelId::kFft, 2, 2));
    server.submit(3, KernelId::kSha256,
                  kernel_input(KernelId::kSha256, 2, 3));
    server.run();
    std::vector<unsigned> clients;
    for (const ServerRequest& r : server.completed())
      clients.push_back(r.client);
    return clients;
  };

  const auto fifo = completion_order(DevicePolicy::kFifo);
  ASSERT_EQ(fifo.size(), 4u);
  EXPECT_EQ(fifo[2], 2u);  // arrival order

  const auto sjf = completion_order(DevicePolicy::kShortestReconfigFirst);
  ASSERT_EQ(sjf.size(), 4u);
  EXPECT_EQ(sjf[2], 3u);  // 10-frame SHA-256 before 16-frame FFT
  EXPECT_EQ(sjf[3], 2u);
}

TEST(CoprocessorServerPolicyTest, ShortestReconfigFirstUsesTheDeltaLoadCost) {
  // Under delta reconfiguration the SJF key is the modeled load cost, not
  // the footprint.  A 12-frame XTEA variant whose sibling's frames are
  // still on the fabric (all but kDirty match) reloads cheaper than cold
  // 10-frame SHA-256, so it is served first even though it arrived second
  // and is larger; without delta tracking the footprint key serves
  // SHA-256 first.
  constexpr memory::FunctionId kV0 = 9000;
  constexpr memory::FunctionId kV1 = 9001;
  constexpr unsigned kFrames = 12;
  constexpr unsigned kDirty = 2;
  const auto sha = algorithms::function_id(KernelId::kSha256);
  const auto& xtea = algorithms::spec(KernelId::kXtea);
  const Bytes blocker = kernel_input(KernelId::kAes128, 512, 1);
  const auto completion_order = [&](bool delta) {
    CoprocessorConfig cc;
    cc.mcu.engine.delta_reconfig = delta;
    AgileCoprocessor card(cc);
    card.download(KernelId::kAes128);
    card.download(KernelId::kSha256);
    bitstream::SynthParams params;
    params.frames = kFrames;
    params.seed = 11;
    const auto geometry = card.fabric().geometry();
    const bitstream::Bitstream v0 = bitstream::synthesize_behavioral(
        xtea.name, algorithms::function_id(KernelId::kXtea),
        xtea.input_width, xtea.output_width, geometry, params);
    params.seed = 12;
    const bitstream::Bitstream alt = bitstream::synthesize_behavioral(
        xtea.name, algorithms::function_id(KernelId::kXtea),
        xtea.input_width, xtea.output_width, geometry, params);
    bitstream::Bitstream v1 = v0;
    for (unsigned d = 0; d < kDirty; ++d) v1.frames[d] = alt.frames[d];
    card.download_bitstream(kV0, v0);
    card.download_bitstream(kV1, v1);

    ServerConfig sc;
    sc.device_policy = DevicePolicy::kShortestReconfigFirst;
    sc.overlap_reconfig = false;  // serialize: ordering is the observable
    CoprocessorServer server(card, sc);
    server.submit(0, KernelId::kAes128, blocker);  // make resident
    server.submit_function(0, kV0, xtea.make_input(1, 4));
    server.run();
    card.mcu().evict(kV0);  // its frames stay on the fabric
    const mcu::Mcu& mcu = card.mcu();
    EXPECT_GT(mcu.rom().lookup(kV1)->frames, mcu.rom().lookup(sha)->frames);
    if (delta) {
      EXPECT_LT(mcu.estimated_load_cost(kV1), mcu.estimated_load_cost(sha));
    }

    server.submit(1, KernelId::kAes128, blocker);  // occupy the fabric
    server.submit(2, KernelId::kSha256, kernel_input(KernelId::kSha256, 2, 3));
    server.submit_function(3, kV1, xtea.make_input(1, 5));
    server.run();
    std::vector<unsigned> clients;
    for (const ServerRequest& r : server.completed())
      clients.push_back(r.client);
    return clients;
  };

  const auto footprint = completion_order(/*delta=*/false);
  ASSERT_EQ(footprint.size(), 5u);
  EXPECT_EQ(footprint[3], 2u);  // 10-frame SHA-256 before 12-frame XTEA
  EXPECT_EQ(footprint[4], 3u);

  const auto cost = completion_order(/*delta=*/true);
  ASSERT_EQ(cost.size(), 5u);
  EXPECT_EQ(cost[3], 3u);  // the cheap delta reload jumps SHA-256
  EXPECT_EQ(cost[4], 2u);
}

TEST(CoprocessorServerTest, PowerOffOnASharedSchedulerCancelsOnlyItsOwnEvents) {
  // A fleet drives every card's server and its own dispatch events on one
  // scheduler.  One card's power_off must retire exactly that card's
  // pending events and release its requests' captured state at once, and
  // leave the other card's and the fleet's events pending.  A twin fleet
  // whose card 0 never gets work counts everyone else's events.
  const KernelId kernel = KernelId::kAes128;
  const Bytes input = kernel_input(kernel, 16, 5);
  auto probe = std::make_shared<int>(0);
  const std::weak_ptr<int> alive = probe;
  int card0_done = 0;
  int fleet_done = 0;
  const auto start = [&](CoprocessorFleet& fleet, bool busy_card0) {
    fleet.download(kernel);
    const sim::SimTime t0 = fleet.now();
    for (unsigned client = 0; client < 3; ++client) {
      if (busy_card0)
        fleet.server(0).submit(client, kernel, input,
                               [probe, &card0_done](const ServerRequest&) {
                                 ++card0_done;
                               });
      fleet.server(1).submit(client, kernel, input);
    }
    fleet.submit_function_at(t0 + sim::SimTime::us(200), 9,
                             algorithms::function_id(kernel), input,
                             [&](const ServerRequest&) { ++fleet_done; });
    fleet.run_until(t0 + sim::SimTime::us(5));
  };
  CoprocessorFleet twin;
  start(twin, false);
  CoprocessorFleet fleet;
  start(fleet, true);
  probe.reset();

  ASSERT_EQ(fleet.server(0).in_flight(), 3u);
  ASSERT_GT(fleet.sim_pending(), twin.sim_pending());  // card 0 has events
  auto refugees = fleet.server(0).power_off();
  EXPECT_EQ(fleet.sim_pending(), twin.sim_pending());
  ASSERT_EQ(refugees.size(), 3u);
  for (const auto& r : refugees) EXPECT_EQ(r.input, input);
  EXPECT_FALSE(alive.expired());  // only the refugees' hooks hold it now
  refugees.clear();
  EXPECT_TRUE(alive.expired());

  fleet.run();
  EXPECT_EQ(card0_done, 0);
  EXPECT_EQ(fleet_done, 1);
  std::size_t card1_requests = 0;
  for (const ServerRequest& r : fleet.server(1).completed()) {
    if (r.client == 9) continue;  // the fleet's own dispatch may land here
    ++card1_requests;
    EXPECT_EQ(r.output, algorithms::spec(kernel).software(input));
  }
  EXPECT_EQ(card1_requests, 3u);
}

TEST(CoprocessorServerTest, SubmitInThePastThrows) {
  AgileCoprocessor card;
  card.download(KernelId::kXtea);
  CoprocessorServer server(card);
  server.submit(0, KernelId::kXtea, kernel_input(KernelId::kXtea, 1, 1));
  server.run();
  EXPECT_THROW(server.submit_function_at(
                   sim::SimTime::zero(), 0,
                   algorithms::function_id(KernelId::kXtea),
                   kernel_input(KernelId::kXtea, 1, 1)),
               Error);
}

TEST(CoprocessorServerTest, UnknownFunctionThrowsAtSubmit) {
  AgileCoprocessor card;
  card.download_all();
  CoprocessorServer server(card);
  const std::uint64_t first =
      server.submit(0, KernelId::kXtea, kernel_input(KernelId::kXtea, 1, 1));
  const std::size_t pending = card.scheduler().pending();
  try {
    server.submit_function_at(server.now(), 0, 9999,
                              kernel_input(KernelId::kXtea, 1, 2));
    FAIL() << "expected NotFound";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
  EXPECT_EQ(card.scheduler().pending(), pending);
  EXPECT_EQ(server.in_flight(), 1u);
  EXPECT_EQ(server.submit(0, KernelId::kXtea,
                          kernel_input(KernelId::kXtea, 1, 3)),
            first + 1);
  server.run();
  EXPECT_EQ(server.stats().completed, 2u);
  EXPECT_EQ(server.stats().submitted, 2u);
}


// A card serves through one live server at a time: the synchronous invoke
// builds a server of its own, so on a card whose server is live it throws
// kInvalidArgument before running anything, and the live server's stats
// still conserve (its `server.*` counters saw no foreign request).  Once
// that server is gone the invoke works again.
TEST(CoprocessorServerTest, OneLiveServerPerCard) {
  AgileCoprocessor card;
  card.download_all();
  const Bytes input = kernel_input(KernelId::kXtea, 1, 4);
  {
    CoprocessorServer server(card);
    server.submit(0, KernelId::kXtea, input);
    server.run();
    const ServerStats before = server.stats();
    const sim::SimTime now = card.now();
    const std::uint64_t grants = card.bus().stats().grants;

    try {
      card.invoke(KernelId::kXtea, input);
      FAIL() << "expected kInvalidArgument";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
    }
    EXPECT_THROW(CoprocessorServer second(card), Error);

    const ServerStats after = server.stats();
    EXPECT_EQ(after, before);
    EXPECT_EQ(after.submitted, after.completed + after.failed);
    EXPECT_EQ(after.batches, after.completed);
    EXPECT_EQ(card.now(), now);
    EXPECT_EQ(card.bus().stats().grants, grants);
  }
  const ServerRequest record = card.invoke(KernelId::kXtea, input);
  EXPECT_EQ(record.output, algorithms::spec(KernelId::kXtea).software(input));
  EXPECT_TRUE(record.load.hit);
  EXPECT_NO_THROW(CoprocessorServer again(card));  // the invoke's server
                                                   // released the card
}

}  // namespace
}  // namespace aad::core
