// Experiment P — speculative configuration prefetch (core/predictor.h, the
// server's prefetch pump, and the fleet's prefetched routing tier).
//
// The configuration engine sits idle whenever the demand queue is empty —
// exactly the cycles a predicted next function could be loading in.  Each
// server trains a per-client first-order Markov predictor on its completed
// requests and speculatively loads the predicted next configuration into
// FREE frames only (a speculative load never evicts a demand resident, and
// a demand miss steals the frames back instantly).  The fleet layers two
// more pieces on top: a routing tier that sends a request to the card that
// prefetched it, and cross-card prefetch — when the card a demand went to
// cannot hold the predicted next function, a cold sibling warms it instead.
//
//   P1 — predictor off/on per workload (bursty / incremental / phased) on a
//        2-card affinity fleet: hit rate, throughput, p99 and the prefetch
//        ledger (issued / hits / wasted / hidden reconfiguration time).
//        The phased workload is the headline: its sliding working-set
//        windows defeat pure residency affinity (each phase introduces
//        functions no card has seen) but follow a perfect first-order
//        cycle the predictor locks onto.
//   P2 — card-count sweep on the phased workload: the cross-card path only
//        exists at >= 2 cards, and the prefetched routing tier's share
//        grows with the fleet.
//
// Flags (bench_util.h parser): `--json <path>` captures the metrics;
// `--clients N` (default 6) and `--requests N` (default 24, per phase /
// chain walk) scale the traces; `--predictor C` (default 0.35) sets the
// ON rows' confidence threshold — low on purpose: a mispredicted prefetch
// costs only idle engine cycles and free frames, so speaking early beats
// staying silent; `--prefetch off` skips the ON rows (baseline only).
#include "bench_util.h"

#include <algorithm>
#include <string>
#include <vector>

#include "core/fleet.h"
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
  return static_cast<std::size_t>(bench::flags().get_int("requests", 24));
}

// The heavyweight crypto/DSP mix (6-18 of the device's 48 frames each,
// ~99 frames combined): concurrent clients genuinely contend for fabric
// area, so the predicted-next function is usually NOT already resident.
std::vector<std::uint32_t> heavy_bank() {
  std::vector<std::uint32_t> bank;
  for (const KernelId id :
       {KernelId::kAes128, KernelId::kDes, KernelId::kSha1,
        KernelId::kSha256, KernelId::kMd5, KernelId::kMatMul, KernelId::kFft,
        KernelId::kFir16, KernelId::kModExp})
    bank.push_back(algorithms::function_id(id));
  return bank;
}

workload::MultiClientTrace bursty_trace(std::uint64_t seed) {
  workload::BurstyConfig bc;
  bc.clients = flag_clients();
  bc.bursts = std::max<std::size_t>(4, flag_requests() / 3);
  bc.burst_size = 6;
  bc.functions = heavy_bank();
  bc.seed = seed;
  bc.payload_blocks = 2;
  // Strong skew: burst-to-burst transitions are draws, not a cycle, so the
  // predictor's signal IS the popularity head — after any burst, the head
  // function is the likely next.  Uniform bursts would stay under any
  // useful confidence threshold.
  bc.zipf_s = 1.1;
  // Tight bursts, long idle gaps: the burst saturates the card, the gap is
  // the idle window the pump loads the predicted next burst head into.
  bc.mean_intra_gap = sim::SimTime::us(20);
  bc.mean_inter_gap = sim::SimTime::ms(5);
  return workload::make_bursty(bc);
}

workload::MultiClientTrace incremental_trace(std::uint64_t seed) {
  // Version chains walked v -> v+1 cyclically: repeats are
  // self-transitions (dropped by the predictor), so every recorded edge is
  // the advance — the predictor reaches full confidence on the chain
  // order.  Each chain's combined footprint exceeds one card, so the
  // wrapped-around version is long evicted when the walk returns to it:
  // every advance is a miss without prefetch.
  workload::IncrementalConfig ic;
  const auto bank = heavy_bank();
  ic.groups.emplace_back(bank.begin(), bank.begin() + 5);
  ic.groups.emplace_back(bank.begin() + 5, bank.end());
  ic.clients = flag_clients();
  ic.requests_per_client = flag_requests();
  ic.seed = seed;
  ic.payload_blocks = 2;
  ic.mode = workload::ArrivalMode::kOpenLoop;
  ic.advance = 0.6;
  ic.mean_interarrival = sim::SimTime::ms(2);
  return workload::make_incremental(ic);
}

workload::MultiClientTrace phased_trace(std::uint64_t seed) {
  workload::PhasedConfig pc;
  pc.clients = flag_clients();
  // Disjoint windows that WRAP (stride == working_set, 9-function bank):
  // phase 3 revisits phase 0's window, whose cycle the predictor already
  // knows but whose functions later phases evicted — the revisit's misses
  // are exactly what the pump hides.
  pc.phases = 6;
  pc.requests_per_phase = std::max<std::size_t>(6, flag_requests() / 3);
  pc.functions = heavy_bank();
  pc.working_set = 3;
  pc.phase_stride = 3;
  pc.seed = seed;
  pc.payload_blocks = 2;
  pc.wander = 0.05;
  pc.mean_interarrival = sim::SimTime::ms(1);
  return workload::make_phased(pc);
}

core::FleetStats run_fleet(unsigned cards, bool prefetch, double confidence,
                           const workload::MultiClientTrace& trace,
                           unsigned frames = 48) {
  core::FleetConfig fc;
  fc.cards = cards;
  fc.policy = core::DispatchPolicy::kResidencyAffinity;
  fc.server.prefetch.enabled = prefetch;
  fc.server.prefetch.predictor.min_confidence = confidence;
  fc.card.fabric.geometry.frame_count = frames;
  core::CoprocessorFleet fleet(fc);
  if (auto* sink = bench::trace_sink())
    fleet.attach_trace(*sink,
                       std::string("prefetch cards=") + std::to_string(cards) +
                           (prefetch ? " on" : " off"));
  fleet.download_all();
  workload::replay(fleet, trace, request_input);
  fleet.run();
  return fleet.stats();
}

void workload_sweep(const bench::PrefetchFlags& pf) {
  std::puts("\n=== P1: predictor off/on per workload, 2-card affinity fleet ===");
  std::printf("(%u open-loop clients over the heavyweight crypto/DSP bank; "
              "ON rows prefetch at confidence >= %.2f into free frames "
              "during idle engine cycles)\n",
              flag_clients(), pf.min_confidence);
  const std::vector<int> widths = {13, 9, 7, 9, 10, 8, 7, 8, 11, 10};
  bench::print_row({"workload", "prefetch", "hit%", "req/s", "p99(us)",
                    "issued", "hits", "wasted", "hidden(us)", "pf-routed"},
                   widths);
  bench::print_rule(widths);

  struct Case {
    const char* name;
    workload::MultiClientTrace trace;
    unsigned frames;  ///< per-card fabric frames (contention knob)
  };
  // The bursty case runs 32-frame cards: on the default 48 the popular
  // burst heads simply stay resident and there is nothing left to predict.
  const Case cases[] = {{"bursty", bursty_trace(21), 28},
                        {"incremental", incremental_trace(22), 48},
                        {"phased", phased_trace(23), 48}};
  for (const Case& c : cases) {
    for (const bool on : {false, true}) {
      if (on && !pf.enabled) continue;
      const auto stats = run_fleet(2, on, pf.min_confidence, c.trace, c.frames);
      const double hidden_us =
          stats.hidden_reconfig_prefetch.microseconds();
      bench::print_row(
          {c.name, on ? "on" : "off",
           bench::fmt("%.1f", 100.0 * stats.hit_rate),
           bench::fmt("%.0f", stats.throughput_rps),
           bench::fmt("%.1f", stats.latency.p99.microseconds()),
           bench::fmt_u(stats.prefetch_issued),
           bench::fmt_u(stats.prefetch_hits),
           bench::fmt_u(stats.prefetch_wasted),
           bench::fmt("%.1f", hidden_us),
           bench::fmt_u(stats.prefetch_routed)},
          widths);
      const std::string suffix =
          std::string("_") + c.name + (on ? "_on" : "_off");
      bench::json().set("prefetch_hit_rate" + suffix, stats.hit_rate);
      bench::json().set("prefetch_rps" + suffix, stats.throughput_rps);
      if (on) {
        bench::json().set(std::string("prefetch_issued_") + c.name,
                          stats.prefetch_issued);
        bench::json().set(std::string("prefetch_hits_") + c.name,
                          stats.prefetch_hits);
        bench::json().set(std::string("prefetch_wasted_") + c.name,
                          stats.prefetch_wasted);
        bench::json().set(std::string("prefetch_hidden_us_") + c.name,
                          hidden_us);
        bench::json().set(std::string("prefetch_routed_") + c.name,
                          stats.prefetch_routed);
      }
    }
  }
}

void card_sweep(const bench::PrefetchFlags& pf) {
  if (!pf.enabled) return;
  std::puts("\n=== P2: card-count sweep, phased workload ===");
  std::puts("(cross-card prefetch needs a sibling: when the card a demand "
            "went to cannot place the predicted next function in free "
            "frames, a cold sibling warms it and the prefetched routing "
            "tier steers the demand there)");
  const std::vector<int> widths = {7, 10, 9, 9, 11, 8};
  bench::print_row(
      {"cards", "hit%-off", "hit%-on", "req/s-on", "pf-routed", "cross"},
      widths);
  bench::print_rule(widths);

  const auto trace = phased_trace(29);
  for (const unsigned cards : {1u, 2u, 4u}) {
    const auto off = run_fleet(cards, false, pf.min_confidence, trace);
    const auto on = run_fleet(cards, true, pf.min_confidence, trace);
    bench::print_row({std::to_string(cards),
                      bench::fmt("%.1f", 100.0 * off.hit_rate),
                      bench::fmt("%.1f", 100.0 * on.hit_rate),
                      bench::fmt("%.0f", on.throughput_rps),
                      bench::fmt_u(on.prefetch_routed),
                      bench::fmt_u(on.prefetch_cross)},
                     widths);
    const std::string suffix = "_cards" + std::to_string(cards);
    bench::json().set("prefetch_phased_hit_off" + suffix, off.hit_rate);
    bench::json().set("prefetch_phased_hit_on" + suffix, on.hit_rate);
    bench::json().set("prefetch_phased_cross" + suffix, on.prefetch_cross);
  }
}

}  // namespace

void run_experiment() {
  const bench::PrefetchFlags pf = bench::prefetch_flags(true, 0.35);
  workload_sweep(pf);
  card_sweep(pf);
}
