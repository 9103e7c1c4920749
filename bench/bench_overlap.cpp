// Experiment O — overlapped reconfiguration and device scheduling.
//
// The device stage of the pipeline is two independently-arbitrated
// resources: the configuration engine (firmware decode + on-demand load)
// and the fabric (staging + execution).  With overlap_reconfig on, a queued
// request's configuration streams through the engine while the fabric still
// executes the previous request (frames permitting — see core/server.h and
// Mcu::pin), so reconfiguration time hides behind execution instead of
// serializing after it.  Three tables:
//
//   O1 — overlap on/off × device policy on one miss-heavy trace: the
//        headline makespan win and the per-request wait attribution
//        (engine_wait vs fabric_wait) the split makes visible,
//   O2 — hidden-reconfiguration time vs workload skew (hit rate sweep):
//        the more misses, the more there is to hide,
//   O3 — device-policy shoot-out on a mixed hot/cold trace where
//        reordering (resident-first / shortest-reconfig-first) pays.
//
// Flags (bench_util.h parser): `--json <path>` captures the headline
// metrics; `--clients N` (default 6), `--requests N` per client (default
// 20) and `--blocks N` payload blocks (default 12) rescale every table.
#include "bench_util.h"

#include <vector>

#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;
using algorithms::KernelId;

using bench::request_input;

unsigned flag_clients() {
  return static_cast<unsigned>(bench::flags().get_int("clients", 6));
}
std::size_t flag_requests() {
  return static_cast<std::size_t>(bench::flags().get_int("requests", 20));
}
std::size_t flag_blocks() {
  return static_cast<std::size_t>(bench::flags().get_int("blocks", 12));
}

workload::MultiClientTrace make_trace(double zipf_s, std::uint64_t seed) {
  workload::MultiClientConfig wc;
  wc.clients = flag_clients();
  wc.requests_per_client = flag_requests();
  wc.functions = algorithms::function_bank();
  wc.seed = seed;
  wc.zipf_s = zipf_s;
  wc.payload_blocks = flag_blocks();  // execution long enough to hide behind
  wc.mode = workload::ArrivalMode::kClosedLoop;
  return workload::make_multi_client(wc);
}

core::ServerStats run_server(const core::ServerConfig& sc,
                             const workload::MultiClientTrace& trace,
                             double* hit_rate = nullptr) {
  core::AgileCoprocessor card;
  card.download_all();
  core::CoprocessorServer server(card, sc);
  if (auto* sink = bench::trace_sink())
    server.attach_trace(*sink, std::string("overlap ") +
                                   core::to_string(sc.device_policy));
  workload::replay(server, trace, request_input);
  server.run();
  if (hit_rate) {
    const auto device = card.stats().device;
    *hit_rate = device.invocations
                    ? static_cast<double>(device.config_hits) /
                          static_cast<double>(device.invocations)
                    : 0.0;
  }
  return server.stats();
}

void overlap_headline() {
  std::puts("\n=== O1: overlap on/off x device policy, miss-heavy trace ===");
  std::printf("(%u closed-loop clients, uniform draw over the full kernel "
              "bank — the fabric churns, so almost every request "
              "reconfigures; %zu-block payloads give the engine an "
              "execution to hide behind)\n",
              flag_clients(), flag_blocks());
  const std::vector<int> widths = {25, 9, 13, 10, 11, 11, 12, 12};
  bench::print_row({"device policy", "overlap", "makespan(ms)", "req/s",
                    "hidden(us)", "overlapped", "eng-wait(us)",
                    "fab-wait(us)"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace(0.0, 41);
  double fifo_off_ms = 0.0;
  struct Row {
    core::DevicePolicy policy;
    const char* key;
  };
  for (const Row row :
       {Row{core::DevicePolicy::kFifo, "fifo"},
        Row{core::DevicePolicy::kResidentFirst, "resident_first"},
        Row{core::DevicePolicy::kShortestReconfigFirst, "shortest_first"}}) {
    for (const bool overlap : {false, true}) {
      core::ServerConfig sc;
      sc.device_policy = row.policy;
      sc.overlap_reconfig = overlap;
      const auto stats = run_server(sc, trace);
      if (row.policy == core::DevicePolicy::kFifo && !overlap)
        fifo_off_ms = stats.makespan.milliseconds();

      bench::print_row(
          {core::to_string(row.policy), overlap ? "on" : "off",
           bench::fmt("%.2f", stats.makespan.milliseconds()),
           bench::fmt("%.0f", stats.throughput_rps),
           bench::fmt("%.1f", stats.total_hidden_reconfig.microseconds()),
           bench::fmt_u(stats.overlapped_loads),
           bench::fmt("%.1f", stats.total_engine_wait.microseconds()),
           bench::fmt("%.1f", stats.total_fabric_wait.microseconds())},
          widths);

      const std::string suffix =
          std::string("_") + row.key + (overlap ? "_on" : "_off");
      bench::json().set("overlap_makespan_ms" + suffix,
                        stats.makespan.milliseconds());
      bench::json().set("overlap_hidden_us" + suffix,
                        stats.total_hidden_reconfig.microseconds());
      bench::json().set("overlap_overlapped_loads" + suffix,
                        stats.overlapped_loads);
      if (overlap && fifo_off_ms > 0.0)
        bench::json().set(std::string("overlap_speedup_") + row.key,
                          fifo_off_ms / stats.makespan.milliseconds());
    }
  }
}

void hidden_vs_skew() {
  std::puts("\n=== O2: hidden reconfiguration vs workload skew, FIFO ===");
  std::puts("(skew raises the configuration hit rate; fewer misses mean "
            "less reconfiguration to hide — the overlap win is largest "
            "exactly where the paper's cost is largest)");
  const std::vector<int> widths = {9, 7, 14, 14, 13, 10};
  bench::print_row({"zipf s", "hit%", "serial(ms)", "overlap(ms)",
                    "hidden(us)", "win%"},
                   widths);
  bench::print_rule(widths);

  for (const double s : {0.0, 0.6, 1.1, 1.5}) {
    const auto trace = make_trace(s, 43);
    core::ServerConfig off;
    off.overlap_reconfig = false;
    core::ServerConfig on;
    on.overlap_reconfig = true;
    const auto serial = run_server(off, trace);
    double hit_rate = 0.0;
    const auto overlapped = run_server(on, trace, &hit_rate);
    const double win =
        100.0 * (serial.makespan.milliseconds() -
                 overlapped.makespan.milliseconds()) /
        serial.makespan.milliseconds();
    bench::print_row(
        {bench::fmt("%.1f", s), bench::fmt("%.0f", 100.0 * hit_rate),
         bench::fmt("%.2f", serial.makespan.milliseconds()),
         bench::fmt("%.2f", overlapped.makespan.milliseconds()),
         bench::fmt("%.1f", overlapped.total_hidden_reconfig.microseconds()),
         bench::fmt("%.1f", win)},
        widths);
    const std::string suffix = bench::fmt("_s%.1f", s);
    bench::json().set("overlap_skew_hidden_us" + suffix,
                      overlapped.total_hidden_reconfig.microseconds());
    bench::json().set("overlap_skew_win_pct" + suffix, win);
  }
}

void policy_shootout() {
  std::puts("\n=== O3: device policies on a hot/cold mix (overlap on) ===");
  std::puts("(zipf(1.1): a resident head plus a cold tail.  Reordering "
            "lets hits jump queued reconfigurations, so the fabric stays "
            "busy; shortest-reconfig-first additionally drains small "
            "footprints first)");
  const std::vector<int> widths = {25, 13, 10, 10, 11, 11};
  bench::print_row({"device policy", "makespan(ms)", "req/s", "p50(us)",
                    "p99(us)", "hidden(us)"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace(1.1, 47);
  for (const auto policy : {core::DevicePolicy::kFifo,
                            core::DevicePolicy::kResidentFirst,
                            core::DevicePolicy::kShortestReconfigFirst}) {
    core::ServerConfig sc;
    sc.device_policy = policy;
    const auto stats = run_server(sc, trace);
    bench::print_row(
        {core::to_string(policy),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.1f", stats.latency.p50.microseconds()),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt("%.1f", stats.total_hidden_reconfig.microseconds())},
        widths);
    bench::json().set(
        std::string("overlap_policy_rps_") + core::to_string(policy),
        stats.throughput_rps);
  }
}

}  // namespace

void run_experiment() {
  overlap_headline();
  hidden_vs_skew();
  policy_shootout();
}
