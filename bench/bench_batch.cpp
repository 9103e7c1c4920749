// Experiment B — same-function request batching (ServerConfig::batch in
// core/server.h).
//
// When the device policy picks a function, the batch mode can drain
// every queued request for that same function into one batch that shares a
// single firmware decode + on-demand load and runs back-to-back fabric
// windows — one reconfiguration amortized across the batch.  The workload
// is the bursty open-loop generator (workload::make_bursty): concurrent
// clients each burst one function at a time, so the unbatched FIFO device
// stage sees an interleaved A,B,C,A,B,C… queue and thrashes its
// configuration state, while batching regroups the interleave.  Tables:
//
//   B1 — batch policy shoot-out (none / greedy / windowed) on the bursty
//        trace: makespan, throughput, hit rate, batch shape, amortized
//        engine time — the headline ≥1.3x over no-batch,
//   B2 — windowed-policy horizon sweep: longer windows coalesce more but
//        add head-of-line latency (the p99 shows the bet),
//   B3 — burstiness sweep (burst length 1..16), greedy vs none: batching
//        is free when there is nothing to coalesce and grows with the
//        burst length,
//   B4 — 2-card fleet, residency-affinity dispatch x batch policy: the
//        open-batch routing tier (CoprocessorServer::open_batch_for) steers
//        concurrent same-function bursts onto the card already coalescing
//        them.
//
// Flags (bench_util.h parser): `--json <path>` captures the headline
// metrics; `--clients N` (default 8), `--bursts N` per client (default 8),
// `--burstlen N` requests per burst (default 8), `--blocks N` payload
// blocks (default 4), `--intra US` / `--inter US` mean intra-/inter-burst
// gaps in microseconds (default 40 / 200 — bursts from different clients
// overlap in arrival time, the regime batching is for) and `--zipf S`
// burst-function skew (default 0.3) rescale B1, B3 and B4.  B2 studies
// the light-load trickle regime specifically, so it pins its trace shape
// (2 clients, 2-block payloads, 100us/3ms gaps) and honors only
// `--bursts` and `--burstlen`.
#include "bench_util.h"

#include <vector>

#include "core/fleet.h"
#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;

using bench::request_input;

unsigned flag_clients() {
  return static_cast<unsigned>(bench::flags().get_int("clients", 8));
}
std::size_t flag_bursts() {
  return static_cast<std::size_t>(bench::flags().get_int("bursts", 8));
}
std::size_t flag_burstlen() {
  return static_cast<std::size_t>(bench::flags().get_int("burstlen", 8));
}
std::size_t flag_blocks() {
  return static_cast<std::size_t>(bench::flags().get_int("blocks", 4));
}

// The heavyweight offload mix: the crypto/DSP kernels whose footprints
// (6-18 of the device's 48 frames) are what on-demand reconfiguration is
// for.  Their combined footprint (~99 frames) is roughly twice the device,
// so concurrently bursting clients genuinely contend for fabric area — the
// tiny combinational kernels would all stay resident and hide the effect.
std::vector<std::uint32_t> heavy_bank() {
  using algorithms::KernelId;
  std::vector<std::uint32_t> bank;
  for (const KernelId id :
       {KernelId::kAes128, KernelId::kDes, KernelId::kSha1,
        KernelId::kSha256, KernelId::kMd5, KernelId::kMatMul, KernelId::kFft,
        KernelId::kFir16, KernelId::kModExp})
    bank.push_back(algorithms::function_id(id));
  return bank;
}

workload::MultiClientTrace make_trace(std::size_t burst_size,
                                      std::uint64_t seed) {
  workload::BurstyConfig bc;
  bc.clients = flag_clients();
  bc.bursts = flag_bursts();
  bc.burst_size = burst_size;
  bc.functions = heavy_bank();
  bc.seed = seed;
  bc.payload_blocks = flag_blocks();
  // Mild skew: concurrent bursts are usually DIFFERENT functions, and the
  // intra-burst gap is on the order of the inter-burst spread, so bursts
  // from different clients interleave request-by-request at the device —
  // more distinct functions in flight than the 48-frame fabric holds.
  // Without batching the FIFO stage reconfigures per request; batching
  // regroups each function's queued requests behind one load.
  bc.zipf_s = bench::flags().get_double("zipf", 0.3);
  bc.mean_intra_gap =
      sim::SimTime::us(bench::flags().get_double("intra", 40.0));
  bc.mean_inter_gap =
      sim::SimTime::us(bench::flags().get_double("inter", 200.0));
  return workload::make_bursty(bc);
}

core::ServerStats run_server(const core::ServerConfig& sc,
                             const workload::MultiClientTrace& trace,
                             double* hit_rate = nullptr) {
  core::AgileCoprocessor card;
  card.download_all();
  core::CoprocessorServer server(card, sc);
  if (auto* sink = bench::trace_sink())
    server.attach_trace(*sink,
                        std::string("batch ") + core::to_string(sc.batch.mode));
  workload::replay(server, trace, request_input);
  server.run();
  if (hit_rate) {
    // Batched followers never reach the MCU's per-command counters, so the
    // driver-visible hit rate comes from the completion records.
    std::uint64_t hits = 0;
    for (const core::ServerRequest& r : server.completed())
      if (r.load.hit) ++hits;
    *hit_rate = server.completed().empty()
                    ? 0.0
                    : static_cast<double>(hits) /
                          static_cast<double>(server.completed().size());
  }
  return server.stats();
}

core::ServerConfig batch_config(core::BatchMode mode,
                                sim::SimTime window = sim::SimTime::us(50)) {
  core::ServerConfig sc;  // FIFO device policy + overlapped reconfiguration
  sc.batch.mode = mode;
  sc.batch.window = window;
  // `--prefetch on` / `--predictor <conf>` layer speculative prefetch onto
  // every table; the default (off) regenerates the documented numbers.
  const bench::PrefetchFlags pf = bench::prefetch_flags();
  sc.prefetch.enabled = pf.enabled;
  sc.prefetch.predictor.min_confidence = pf.min_confidence;
  return sc;
}

void policy_shootout() {
  std::puts("\n=== B1: batch policy on the bursty same-function trace ===");
  std::printf("(%u open-loop clients x %zu bursts x %zu-request bursts over "
              "the heavyweight crypto/DSP bank (~2x the device's frames); "
              "concurrent bursts interleave at the device, so the unbatched "
              "FIFO stage reconfigures per request while batching pays one "
              "load per drained group)\n",
              flag_clients(), flag_bursts(), flag_burstlen());
  const std::vector<int> widths = {11, 13, 9, 7, 9, 11, 11, 13, 9};
  bench::print_row({"policy", "makespan(ms)", "req/s", "hit%", "batches",
                    "mean size", "coalesced", "amort(us)", "speedup"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace(flag_burstlen(), 53);
  double none_rps = 0.0;
  for (const core::BatchMode mode :
       {core::BatchMode::kNone, core::BatchMode::kGreedy,
        core::BatchMode::kWindowed}) {
    double hit_rate = 0.0;
    const auto stats = run_server(batch_config(mode), trace, &hit_rate);
    if (mode == core::BatchMode::kNone) none_rps = stats.throughput_rps;
    const double speedup =
        none_rps > 0.0 ? stats.throughput_rps / none_rps : 0.0;
    bench::print_row(
        {core::to_string(mode),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.0f", 100.0 * hit_rate), bench::fmt_u(stats.batches),
         bench::fmt("%.2f", stats.mean_batch_size),
         bench::fmt_u(stats.coalesced_loads),
         bench::fmt("%.1f", stats.total_amortized_reconfig.microseconds()),
         bench::fmt("%.2f", speedup)},
        widths);

    const std::string suffix = std::string("_") + core::to_string(mode);
    bench::json().set("batch_makespan_ms" + suffix,
                      stats.makespan.milliseconds());
    bench::json().set("batch_rps" + suffix, stats.throughput_rps);
    bench::json().set("batch_hit_rate" + suffix, hit_rate);
    bench::json().set("batch_mean_size" + suffix, stats.mean_batch_size);
    bench::json().set("batch_coalesced" + suffix, stats.coalesced_loads);
    bench::json().set("batch_amortized_us" + suffix,
                      stats.total_amortized_reconfig.microseconds());
    if (mode != core::BatchMode::kNone)
      bench::json().set("batch_speedup" + suffix, speedup);
  }
}

void window_sweep() {
  std::puts("\n=== B2: windowed-policy horizon sweep (light-load trickle) ===");
  std::puts("(2 clients, 100us intra-burst gaps, long idle between bursts: "
            "the device drains faster than a burst arrives, so w=0 commits "
            "tiny batches — holding the pick longer coalesces more of each "
            "burst, and the p50/p99 show the latency the hold costs.  Under "
            "saturation the queue pre-forms the batches and the window is "
            "moot — that regime is B1's)");
  const std::vector<int> widths = {12, 9, 11, 11, 11, 11};
  bench::print_row({"window(us)", "req/s", "p50(us)", "p99(us)", "mean size",
                    "coalesced"},
                   widths);
  bench::print_rule(widths);

  workload::BurstyConfig bc;
  bc.clients = 2;
  bc.bursts = flag_bursts();
  bc.burst_size = flag_burstlen();
  bc.functions = heavy_bank();
  bc.seed = 59;
  bc.payload_blocks = 2;
  bc.zipf_s = 0.3;
  bc.mean_intra_gap = sim::SimTime::us(100);
  bc.mean_inter_gap = sim::SimTime::us(3000);
  const auto trace = workload::make_bursty(bc);
  for (const double window_us : {0.0, 10.0, 25.0, 50.0, 100.0, 250.0}) {
    const auto stats = run_server(
        batch_config(core::BatchMode::kWindowed, sim::SimTime::us(window_us)),
        trace);
    bench::print_row(
        {bench::fmt("%.0f", window_us),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt("%.2f", stats.mean_batch_size),
         bench::fmt_u(stats.coalesced_loads)},
        widths);
    const std::string suffix = bench::fmt("_w%.0f", window_us);
    bench::json().set("batch_window_rps" + suffix, stats.throughput_rps);
    bench::json().set("batch_window_p99_us" + suffix,
                      stats.latency.p99.microseconds());
    bench::json().set("batch_window_mean_size" + suffix,
                      stats.mean_batch_size);
  }
}

void burstiness_sweep() {
  std::puts("\n=== B3: burst length x greedy batching vs no-batch ===");
  std::puts("(even single-request bursts coalesce: under overload the "
            "ready queue holds same-function arrivals from DIFFERENT "
            "clients, and greedy drains them together; longer bursts "
            "deepen the same-function runs each drain amortizes over)");
  const std::vector<int> widths = {11, 12, 13, 11, 9};
  bench::print_row({"burst len", "none req/s", "greedy req/s", "mean size",
                    "speedup"},
                   widths);
  bench::print_rule(widths);

  for (const std::size_t burst : {std::size_t{1}, std::size_t{2},
                                  std::size_t{4}, std::size_t{8},
                                  std::size_t{16}}) {
    const auto trace = make_trace(burst, 61);
    const auto none = run_server(batch_config(core::BatchMode::kNone), trace);
    const auto greedy =
        run_server(batch_config(core::BatchMode::kGreedy), trace);
    const double speedup = none.throughput_rps > 0.0
                               ? greedy.throughput_rps / none.throughput_rps
                               : 0.0;
    bench::print_row({bench::fmt_u(burst),
                      bench::fmt("%.0f", none.throughput_rps),
                      bench::fmt("%.0f", greedy.throughput_rps),
                      bench::fmt("%.2f", greedy.mean_batch_size),
                      bench::fmt("%.2f", speedup)},
                     widths);
    const std::string suffix = bench::fmt("_b%.0f", static_cast<double>(burst));
    bench::json().set("batch_burst_speedup" + suffix, speedup);
    bench::json().set("batch_burst_mean_size" + suffix,
                      greedy.mean_batch_size);
  }
}

void fleet_composition() {
  std::puts("\n=== B4: 2-card fleet, residency-affinity x batch policy ===");
  std::puts("(the affinity router prefers a card holding an OPEN batch for "
            "the function — open_batch_for — so concurrent same-function "
            "bursts converge on the card already coalescing them instead "
            "of splitting the batch across shards)");
  const std::vector<int> widths = {11, 13, 9, 7, 11, 11, 11};
  bench::print_row({"policy", "makespan(ms)", "req/s", "hit%", "mean size",
                    "coalesced", "amort(us)"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace(flag_burstlen(), 67);
  for (const core::BatchMode mode :
       {core::BatchMode::kNone, core::BatchMode::kGreedy,
        core::BatchMode::kWindowed}) {
    core::FleetConfig fc;
    fc.cards = 2;
    fc.policy = core::DispatchPolicy::kResidencyAffinity;
    fc.server = batch_config(mode);
    core::CoprocessorFleet fleet(fc);
    if (auto* sink = bench::trace_sink())
      fleet.attach_trace(*sink,
                         std::string("batch fleet ") + core::to_string(mode));
    fleet.download_all();
    workload::replay(fleet, trace, request_input);
    fleet.run();
    const auto stats = fleet.stats();
    bench::print_row(
        {core::to_string(mode),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.0f", 100.0 * stats.hit_rate),
         bench::fmt("%.2f", stats.mean_batch_size),
         bench::fmt_u(stats.coalesced_loads),
         bench::fmt("%.1f", stats.total_amortized_reconfig.microseconds())},
        widths);
    const std::string suffix = std::string("_") + core::to_string(mode);
    bench::json().set("batch_fleet_rps" + suffix, stats.throughput_rps);
    bench::json().set("batch_fleet_hit_rate" + suffix, stats.hit_rate);
    bench::json().set("batch_fleet_mean_size" + suffix,
                      stats.mean_batch_size);
  }
}

}  // namespace

void run_experiment() {
  policy_shootout();
  window_sweep();
  burstiness_sweep();
  fleet_composition();
}
