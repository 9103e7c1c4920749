// Multi-tenant: four logical clients sharing one card through the
// event-driven CoprocessorServer.
//
//   1. provision the ROM with a service mix (crypto + DSP),
//   2. each client runs a closed loop: hash, encrypt, filter, transform —
//      whatever its role needs — keeping one request in flight,
//   3. the server pipelines them: while client 0's AES owns the fabric,
//      client 1's payload rides the PCI bus, client 2's SHA-256
//      configuration streams through the config engine (overlapped
//      reconfiguration — the device stage is two resources), and client 3
//      queues; the Frame Replacement Table arbitrates whose functions stay
//      resident,
//   4. read per-client latency, the overlap win vs the blocking API, and
//      where requests waited — split into PCI-bus, config-engine and
//      fabric wait, plus the reconfiguration time hidden behind execution.
//
// Build & run:  ./build/multi_tenant
#include <cstdio>
#include <map>
#include <vector>

#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

int main() {
  using aad::algorithms::KernelId;
  namespace core = aad::core;
  namespace workload = aad::workload;

  // 1. One card, one ROM, a mixed service catalog.  Delta reconfiguration
  //    tracks per-frame fabric content so a reload pays only for changed
  //    frames; kAuto lets the MCU pick each function's codec at download
  //    time (trial-compress, model the cold load, choose).
  core::CoprocessorConfig cc;
  cc.mcu.engine.delta_reconfig = true;
  core::AgileCoprocessor card(cc);
  const std::vector<KernelId> mix = {KernelId::kAes128, KernelId::kSha256,
                                     KernelId::kFir16, KernelId::kFft,
                                     KernelId::kCrc32, KernelId::kMd5};
  for (KernelId id : mix) card.download(id, aad::compress::CodecId::kAuto);
  std::printf("provisioned %zu functions; fabric holds %u frames\n",
              mix.size(), card.fabric().geometry().frame_count);

  // 2. Four closed-loop tenants with a shared zipf popularity ranking.
  workload::MultiClientConfig wc;
  wc.clients = 4;
  wc.requests_per_client = 25;
  wc.seed = 2005;
  wc.zipf_s = 1.0;
  wc.payload_blocks = 8;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  wc.mean_think_time = aad::sim::SimTime::us(20);
  for (KernelId id : mix)
    wc.functions.push_back(aad::algorithms::function_id(id));
  const auto trace = workload::make_multi_client(wc);

  // 3. Replay through the server and drain the event queue.
  core::CoprocessorServer server(card);
  workload::replay(server, trace,
                   [](workload::FunctionId fn, std::size_t blocks,
                      std::size_t index) {
                     return aad::algorithms::spec(static_cast<KernelId>(fn))
                         .make_input(blocks, index);
                   });
  server.run();

  // 4. What happened.
  const auto stats = server.stats();
  std::printf("\n%llu requests from %u tenants in %.2f ms of simulated time "
              "(%.0f req/s)\n",
              static_cast<unsigned long long>(stats.completed), wc.clients,
              stats.makespan.milliseconds(), stats.throughput_rps);
  std::printf("latency: p50 %.1f us   p90 %.1f us   p99 %.1f us   "
              "max %.1f us\n",
              stats.latency.p50.microseconds(),
              stats.latency.p90.microseconds(),
              stats.latency.p99.microseconds(),
              stats.latency.max.microseconds());

  struct PerClient {
    std::size_t requests = 0;
    aad::sim::SimTime latency, engine_wait, fabric_wait, bus_wait, hidden;
    std::size_t hits = 0;
  };
  std::map<unsigned, PerClient> tenants;
  for (const core::ServerRequest& r : server.completed()) {
    PerClient& t = tenants[r.client];
    ++t.requests;
    t.latency += r.latency();
    t.engine_wait += r.engine_wait();
    t.fabric_wait += r.fabric_wait;
    t.bus_wait += r.bus_wait();
    t.hidden += r.hidden_reconfig;
    if (r.load.hit) ++t.hits;
  }
  std::puts("\ntenant  requests  mean-latency  config-hits  engine-wait  "
            "fabric-wait  hidden-reconfig");
  for (const auto& [client, t] : tenants)
    std::printf("  %u     %zu        %7.1f us     %zu/%zu        %7.1f us   "
                "%7.1f us   %7.1f us\n",
                client, t.requests,
                t.latency.microseconds() / static_cast<double>(t.requests),
                t.hits, t.requests, t.engine_wait.microseconds(),
                t.fabric_wait.microseconds(), t.hidden.microseconds());
  std::printf("\noverlapped reconfiguration: %llu loads streamed while the "
              "fabric executed, hiding %.1f us of reconfiguration\n",
              static_cast<unsigned long long>(stats.overlapped_loads),
              stats.total_hidden_reconfig.microseconds());

  const auto device = card.stats().device;
  std::printf("\ncard: %llu invocations, %llu reconfigurations, %llu "
              "evictions — tenants contend for residency\n",
              static_cast<unsigned long long>(device.invocations),
              static_cast<unsigned long long>(device.config_misses),
              static_cast<unsigned long long>(device.evictions));
  std::printf("delta reconfiguration: %llu frames skipped by the content "
              "tracker; %llu compressed bytes streamed from ROM\n",
              static_cast<unsigned long long>(stats.frames_skipped_delta),
              static_cast<unsigned long long>(stats.bytes_streamed));
  std::printf("auto codec picks:");
  for (const auto& [codec, picks] : stats.codec_picks)
    std::printf("  %s x%llu", to_string(codec),
                static_cast<unsigned long long>(picks));
  std::puts("");
  std::printf("PCI: %llu DMA grants, %llu had to queue (%.1f us total "
              "arbitration wait)\n",
              static_cast<unsigned long long>(card.bus().stats().grants),
              static_cast<unsigned long long>(
                  card.bus().stats().contended_grants),
              card.bus().stats().queue_delay.microseconds());
  return 0;
}
