// Experiment F — fault injection + recovery across the fleet (sim/fault.h,
// core/fleet.h FaultPlan/RetryConfig).
//
// Cards die and recover mid-trace under a seeded random fault plan; the
// fleet re-dispatches the dead card's queued and in-flight requests to
// survivors, the watchdog retries stragglers, and corrupted ROM images are
// CRC-rejected and re-fetched.  The experiment measures what fault
// tolerance costs while proving the fleet never strands a request:
//
//   F1 — death-rate sweep on a 4-card fleet: throughput, p99, deaths,
//        re-dispatches, retries, failures — and a `hung` column that must
//        read 0 at every rate (conservation: completed + failed ==
//        submitted),
//   F2 — ROM corruption-rate sweep: CRC rejects, pristine re-fetches, and
//        the residual failure count with re-fetch doing its job.
//
// Flags (bench_util.h parser): `--json <path>` captures the metrics;
// `--cards N` (default 4), `--clients N` (default 8), `--bursts N`
// (default 8), `--burstlen N` (default 8), `--blocks N` (default 4) and
// `--seed S` (default 53) rescale both tables.
#include "bench_util.h"

#include <string>
#include <vector>

#include "core/fleet.h"
#include "sim/fault.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;

using bench::request_input;

unsigned flag_cards() {
  return static_cast<unsigned>(bench::flags().get_int("cards", 4));
}
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
std::uint64_t flag_seed() {
  return static_cast<std::uint64_t>(bench::flags().get_int("seed", 53));
}

// The reconfiguration-heavy crypto/DSP mix (see bench_batch.cpp): enough
// combined footprint that survivors genuinely re-load the refugees'
// functions instead of serving everything from residency.
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

workload::MultiClientTrace make_trace() {
  workload::BurstyConfig bc;
  bc.clients = flag_clients();
  bc.bursts = flag_bursts();
  bc.burst_size = flag_burstlen();
  bc.functions = heavy_bank();
  bc.seed = flag_seed();
  bc.payload_blocks = flag_blocks();
  bc.zipf_s = 0.3;
  bc.mean_intra_gap = sim::SimTime::us(40);
  bc.mean_inter_gap = sim::SimTime::us(200);
  return workload::make_bursty(bc);
}

// Faults must land while requests are in flight, whatever the trace shape
// the flags dialed in.  Arrivals stop early but a saturated fleet keeps
// draining long after, so the horizon comes from a fault-free probe run's
// makespan rather than the last arrival offset.
sim::SimTime fault_horizon(const workload::MultiClientTrace& trace);

sim::FaultPlan make_plan(double death_rate_per_ms, double corruption_per_ms,
                         sim::SimTime horizon) {
  sim::RandomFaultConfig fc;
  fc.seed = flag_seed() * 1000003ull + 29;
  fc.cards = flag_cards();
  fc.horizon = horizon;
  fc.death_rate_per_ms = death_rate_per_ms;
  fc.mean_downtime = sim::SimTime::us(500);
  fc.corruption_rate_per_ms = corruption_per_ms;
  fc.functions = heavy_bank();
  return sim::make_random_fault_plan(fc);
}

core::FleetStats run_fleet(const sim::FaultPlan& plan,
                           const workload::MultiClientTrace& trace,
                           std::uint64_t* hung) {
  core::FleetConfig fc;
  fc.cards = flag_cards();
  fc.policy = core::DispatchPolicy::kLeastQueued;
  fc.faults = plan;
  fc.retry.timeout = sim::SimTime::ms(10);
  fc.retry.max_retries = 3;
  core::CoprocessorFleet fleet(fc);
  if (auto* sink = bench::trace_sink())
    fleet.attach_trace(*sink, std::string("faults cards=") +
                                  std::to_string(fc.cards));
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();
  const core::FleetStats stats = fleet.stats();
  // Conservation, the headline invariant: every submitted request either
  // completed or failed — nothing is stranded on a dead card's queue.
  *hung = stats.submitted - stats.completed - stats.failed +
          fleet.in_flight();
  return stats;
}

sim::SimTime fault_horizon(const workload::MultiClientTrace& trace) {
  std::uint64_t hung = 0;
  return run_fleet(sim::FaultPlan{}, trace, &hung).makespan;
}

void death_rate_sweep() {
  std::puts("\n=== F1: card-death-rate sweep (4-card fleet, bursty "
            "crypto/DSP trace) ===");
  std::printf("(%u cards, %u open-loop clients x %zu bursts x %zu-request "
              "bursts; seeded random death/recovery plan, 500us mean "
              "downtime, 10ms watchdog with 3 retries; `hung` must be 0: "
              "completed + failed == submitted)\n",
              flag_cards(), flag_clients(), flag_bursts(), flag_burstlen());
  const std::vector<int> widths = {10, 13, 9, 10, 7, 13, 8, 9, 7, 6};
  bench::print_row({"death/ms", "makespan(ms)", "req/s", "p99(us)", "deaths",
                    "redispatched", "retries", "timeouts", "failed", "hung"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace();
  const sim::SimTime horizon = fault_horizon(trace);
  for (const double rate : {0.0, 0.01, 0.05, 0.2}) {
    std::uint64_t hung = 0;
    const auto stats = run_fleet(make_plan(rate, 0.0, horizon), trace, &hung);
    bench::print_row(
        {bench::fmt("%.3f", rate),
         bench::fmt("%.2f", stats.makespan.milliseconds()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.1f", stats.latency.p99.microseconds()),
         bench::fmt_u(stats.deaths), bench::fmt_u(stats.redispatched),
         bench::fmt_u(stats.retries), bench::fmt_u(stats.timeouts),
         bench::fmt_u(stats.failed), bench::fmt_u(hung)},
        widths);

    const std::string suffix = "_d" + bench::fmt("%.0f", rate * 1000.0);
    bench::json().set("faults_rps" + suffix, stats.throughput_rps);
    bench::json().set("faults_p99_us" + suffix,
                      stats.latency.p99.microseconds());
    bench::json().set("faults_deaths" + suffix, stats.deaths);
    bench::json().set("faults_redispatched" + suffix, stats.redispatched);
    bench::json().set("faults_retries" + suffix, stats.retries);
    bench::json().set("faults_failed" + suffix, stats.failed);
    bench::json().set("faults_hung" + suffix, hung);
  }
}

void corruption_sweep() {
  std::puts("\n=== F2: ROM corruption-rate sweep (CRC reject + pristine "
            "re-fetch) ===");
  std::printf("(same fleet and trace; random bit flips land in stored "
              "images, the engine CRC-rejects the decoded image before "
              "programming a single frame and the driver re-fetches the "
              "pristine copy)\n");
  const std::vector<int> widths = {12, 13, 9, 12, 10, 7, 6};
  bench::print_row({"corrupt/ms", "makespan(ms)", "req/s", "crc_rejects",
                    "refetches", "failed", "hung"},
                   widths);
  bench::print_rule(widths);

  const auto trace = make_trace();
  const sim::SimTime horizon = fault_horizon(trace);
  for (const double rate : {0.0, 0.2, 0.5}) {
    std::uint64_t hung = 0;
    const auto stats = run_fleet(make_plan(0.0, rate, horizon), trace, &hung);
    bench::print_row({bench::fmt("%.2f", rate),
                      bench::fmt("%.2f", stats.makespan.milliseconds()),
                      bench::fmt("%.0f", stats.throughput_rps),
                      bench::fmt_u(stats.crc_rejects),
                      bench::fmt_u(stats.refetches),
                      bench::fmt_u(stats.failed), bench::fmt_u(hung)},
                     widths);

    const std::string suffix = "_c" + bench::fmt("%.0f", rate * 100.0);
    bench::json().set("faults_rps" + suffix, stats.throughput_rps);
    bench::json().set("faults_crc_rejects" + suffix, stats.crc_rejects);
    bench::json().set("faults_refetches" + suffix, stats.refetches);
    bench::json().set("faults_failed" + suffix, stats.failed);
    bench::json().set("faults_hung" + suffix, hung);
  }
}

}  // namespace

void run_experiment() {
  death_rate_sweep();
  corruption_sweep();
}
