// Fleet: sixteen clients spread across four coprocessor cards by a
// residency-affinity dispatcher.
//
//   1. provision a 4-card fleet (every card: own PCI bus, MCU, fabric —
//      one shared simulated clock),
//   2. replay a zipf-skewed closed-loop trace through the fleet,
//   3. the dispatcher routes each arriving request to a card that already
//      holds the function's configuration, so the fleet behaves like a
//      partitioned configuration cache: SHA-256 lives on card 0, AES on
//      card 1, ... and reconfigurations mostly vanish,
//   4. compare against round-robin on the identical trace, then read the
//      per-card breakdown.
//
// Build & run:  ./build/fleet
#include <cstdio>

#include "core/fleet.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

aad::core::FleetStats run_policy(aad::core::DispatchPolicy policy,
                                 const aad::workload::MultiClientTrace& trace) {
  aad::core::FleetConfig fc;
  fc.cards = 4;
  fc.policy = policy;
  aad::core::CoprocessorFleet fleet(fc);
  fleet.download_all();
  aad::workload::replay(
      fleet, trace,
      [](aad::workload::FunctionId fn, std::size_t blocks, std::size_t index) {
        return aad::algorithms::bank_input(fn, blocks, index);
      });
  fleet.run();
  return fleet.stats();
}

}  // namespace

int main() {
  namespace core = aad::core;
  namespace workload = aad::workload;

  // 1+2. Sixteen closed-loop clients, zipf(1.1) over the whole catalog.
  workload::MultiClientConfig wc;
  wc.clients = 16;
  wc.requests_per_client = 20;
  wc.seed = 2005;
  wc.zipf_s = 1.1;
  wc.payload_blocks = 4;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  wc.functions = aad::algorithms::function_bank();
  const auto trace = workload::make_multi_client(wc);
  std::printf("trace: %zu requests from %u clients over %zu functions\n",
              trace.total_requests(), wc.clients, wc.functions.size());

  // 3+4. The same trace under both dispatch policies.
  const auto rr = run_policy(core::DispatchPolicy::kRoundRobin, trace);
  const auto aff = run_policy(core::DispatchPolicy::kResidencyAffinity, trace);

  std::puts("\npolicy               hit%   req/s    p50       p99");
  for (const auto* s : {&rr, &aff})
    std::printf("%-20s %4.1f   %6.0f   %6.1f us %8.1f us\n",
                core::to_string(s == &rr
                                    ? core::DispatchPolicy::kRoundRobin
                                    : core::DispatchPolicy::kResidencyAffinity),
                100.0 * s->hit_rate, s->throughput_rps,
                s->latency.p50.microseconds(),
                s->latency.p99.microseconds());
  std::printf("\naffinity routed %llu requests to a resident card, fell back "
              "on %llu cold ones\n",
              static_cast<unsigned long long>(aff.affinity_routed),
              static_cast<unsigned long long>(aff.affinity_fallback));

  std::puts("\nper-card breakdown under residency-affinity:");
  std::puts("card  dispatched  hit%   resident-fns  p99");
  for (const auto& card : aff.cards)
    std::printf("  %u   %6llu      %5.1f  %6zu        %8.1f us\n", card.card,
                static_cast<unsigned long long>(card.dispatched),
                100.0 * card.server.hit_rate, card.resident,
                card.server.latency.p99.microseconds());

  std::printf("\nthe fleet cleared the trace %.2fx faster than round-robin "
              "dispatch on the same four cards\n",
              aff.throughput_rps / rr.throughput_rps);
  return 0;
}
