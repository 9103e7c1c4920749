// Experiment T — multi-client throughput of the event-driven server.
//
// The synchronous invoke path serializes everything: PCI transfer,
// reconfiguration and fabric execution of consecutive requests never
// overlap.  The CoprocessorServer pipeline lets request B's DMA ride the
// bus while request A owns the card, so under multi-client load the same
// card clears more requests per simulated second.  Three tables:
//
//   T1 — closed-loop saturation vs client count (scaling + tail latency),
//   T2 — event-driven pipeline vs the synchronous path on one workload,
//   T3 — open-loop Poisson load sweep (tail latency vs offered load).
//
// Flags (bench_util.h parser): `--json results.json` captures the headline
// metrics machine-readably; `--clients N` caps the T1 scaling sweep
// (default 8).
#include "bench_util.h"

#include <algorithm>
#include <vector>

#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;
using algorithms::KernelId;

using bench::request_input;

core::ServerStats serve_trace(const workload::MultiClientTrace& trace,
                              core::AgileCoprocessor& card) {
  core::CoprocessorServer server(card);
  if (auto* sink = bench::trace_sink())
    server.attach_trace(*sink, "throughput");
  workload::replay(server, trace, request_input);
  server.run();
  return server.stats();
}

void closed_loop_scaling() {
  std::puts("\n=== T1: closed-loop saturation, zipf(1.0) over all kernels ===");
  std::puts("(each client keeps one request in flight; fresh card per row; "
            "independent zipf streams thrash the shared fabric, so the hit "
            "rate — not the bus — bounds multi-tenant throughput)");
  const std::vector<int> widths = {9, 10, 13, 12, 10, 10, 8, 12};
  bench::print_row({"clients", "requests", "makespan(ms)", "req/s", "p50(us)",
                    "p99(us)", "hit%", "card-wait"},
                   widths);
  bench::print_rule(widths);

  const auto max_clients =
      static_cast<unsigned>(bench::flags().get_int("clients", 8));
  for (unsigned clients : {1u, 2u, 4u, 8u}) {
    if (clients > max_clients) continue;
    workload::MultiClientConfig wc;
    wc.clients = clients;
    wc.requests_per_client = 96 / clients;  // same total work per row
    wc.functions = algorithms::function_bank();
    wc.seed = 5;
    wc.zipf_s = 1.0;
    wc.payload_blocks = 4;
    wc.mode = workload::ArrivalMode::kClosedLoop;
    const auto trace = workload::make_multi_client(wc);

    core::AgileCoprocessor card;
    card.download_all();
    const auto stats = serve_trace(trace, card);
    const auto device = card.stats().device;
    const double hit_rate = 100.0 * static_cast<double>(device.config_hits) /
                            static_cast<double>(device.invocations);

    bench::print_row(
        {std::to_string(clients), bench::fmt_u(stats.completed),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt("%.0f", hit_rate),
         bench::fmt("%.1f us", stats.total_device_wait.microseconds())},
        widths);

    const std::string suffix = "_c" + std::to_string(clients);
    bench::json().set("throughput_rps" + suffix, stats.throughput_rps);
    bench::json().set("p99_us" + suffix, stats.latency.p99.microseconds());
  }
}

void pipeline_vs_synchronous() {
  std::puts("\n=== T2: event-driven pipeline vs synchronous invoke path ===");
  workload::MultiClientConfig wc;
  wc.clients = 4;
  wc.requests_per_client = 24;
  wc.functions = algorithms::function_bank();
  wc.seed = 11;
  wc.zipf_s = 1.0;
  wc.payload_blocks = 8;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  const auto trace = workload::make_multi_client(wc);

  // Synchronous baseline: the same requests, round-robin across clients,
  // one at a time through the blocking API.
  core::AgileCoprocessor sync_card;
  sync_card.download_all();
  const sim::SimTime sync_begin = sync_card.now();
  for (std::size_t i = 0; i < wc.requests_per_client; ++i)
    for (const auto& ct : trace.clients) {
      const auto& r = ct.requests[i];
      sync_card.invoke_function(r.function,
                                request_input(r.function, r.payload_blocks, i));
    }
  const sim::SimTime sync_total = sync_card.now() - sync_begin;

  core::AgileCoprocessor card;
  card.download_all();
  const auto stats = serve_trace(trace, card);

  const double speedup =
      sync_total.microseconds() / stats.makespan.microseconds();
  std::printf("  %llu requests, 4 clients\n",
              static_cast<unsigned long long>(stats.completed));
  std::printf("  synchronous:  %.2f ms\n", sync_total.milliseconds());
  std::printf("  event-driven: %.2f ms   (%.2fx, overlap of PCI transfers "
              "with reconfig+execute)\n",
              stats.makespan.milliseconds(), speedup);
  bench::json().set("overlap_speedup", speedup);
  bench::json().set("sync_makespan_ms", sync_total.milliseconds());
  bench::json().set("server_makespan_ms", stats.makespan.milliseconds());
}

void resident_pipeline() {
  std::puts("\n=== T2b: back-to-back requests for one resident function ===");
  std::puts("(no reconfiguration: the pipeline hides PCI transfers behind "
            "fabric execution)");
  constexpr std::size_t kRequests = 32;
  constexpr std::size_t kBlocks = 64;
  const Bytes input = algorithms::spec(KernelId::kSha256)
                          .make_input(kBlocks, 77);

  core::AgileCoprocessor sync_card;
  sync_card.download(KernelId::kSha256);
  sync_card.invoke(KernelId::kSha256, input);  // make resident
  const sim::SimTime sync_begin = sync_card.now();
  for (std::size_t i = 0; i < kRequests; ++i)
    sync_card.invoke(KernelId::kSha256, input);
  const sim::SimTime sync_total = sync_card.now() - sync_begin;

  core::AgileCoprocessor card;
  card.download(KernelId::kSha256);
  core::CoprocessorServer server(card);
  server.submit(0, KernelId::kSha256, input);  // make resident
  server.run();
  const sim::SimTime begin = server.now();
  for (std::size_t i = 0; i < kRequests; ++i)
    server.submit(static_cast<unsigned>(i % 4), KernelId::kSha256, input);
  server.run();
  const sim::SimTime piped = server.now() - begin;

  const double speedup = sync_total.microseconds() / piped.microseconds();
  std::printf("  %zu warm SHA-256 requests (%zu-block payloads)\n", kRequests,
              kBlocks);
  std::printf("  synchronous:  %.1f us/request\n",
              sync_total.microseconds() / kRequests);
  std::printf("  pipelined:    %.1f us/request   (%.2fx)\n",
              piped.microseconds() / kRequests, speedup);
  bench::json().set("resident_pipeline_speedup", speedup);
}

void open_loop_sweep() {
  std::puts("\n=== T3: open-loop Poisson load sweep, 4 clients ===");
  const std::vector<int> widths = {18, 10, 12, 10, 10, 12};
  bench::print_row({"interarrival(us)", "req/s", "makespan(ms)", "p50(us)",
                    "p99(us)", "max-wait(us)"},
                   widths);
  bench::print_rule(widths);

  for (double us : {400.0, 200.0, 100.0, 50.0}) {
    workload::MultiClientConfig wc;
    wc.clients = 4;
    wc.requests_per_client = 24;
    wc.functions = algorithms::function_bank();
    wc.seed = 23;
    wc.zipf_s = 1.0;
    wc.payload_blocks = 4;
    wc.mode = workload::ArrivalMode::kOpenLoop;
    wc.mean_interarrival = sim::SimTime::us(us);
    const auto trace = workload::make_multi_client(wc);

    core::AgileCoprocessor card;
    card.download_all();
    core::CoprocessorServer server(card);
    workload::replay(server, trace, request_input);
    server.run();
    const auto stats = server.stats();

    sim::SimTime max_wait;
    for (const auto& r : server.completed())
      max_wait = std::max(max_wait, r.bus_wait + r.device_wait);

    bench::print_row(
        {bench::fmt("%.0f", us), bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt("%.1f", max_wait.microseconds())},
        widths);
  }
}

}  // namespace

void run_experiment() {
  closed_loop_scaling();
  pipeline_vs_synchronous();
  resident_pipeline();
  open_loop_sweep();
}
