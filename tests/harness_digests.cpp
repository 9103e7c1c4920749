// Prints one outcome digest per invariant-harness run over a fixed sweep,
// so two builds can be compared run for run:
//
//   ./build/harness_digests > after.txt
//   diff before.txt after.txt
//
// The sweep crosses device policy {fifo, resident-first, shortest-
// reconfiguration-first} x batch mode {none, greedy, windowed} x delta
// reconfiguration x overlapped reconfiguration x prefetch x two fleet
// shapes (four 48-frame cards, and two 24-frame cards under a flat, wide
// workload that evicts on most runs), for each of AAD_INVARIANT_SEEDS seeds
// (default 5, about 10 s on one core).  Dispatch and replacement policy
// rotate with the seed; every run draws its own seeded fault plan of card
// deaths and ROM corruptions.  Only InvariantHarness::run() and digest()
// are used, so the file builds against any version of the harness.
// scripts/compare_outputs.py runs it in both builds it compares.
#include <cstdint>
#include <cstdio>

#include "invariant_harness.h"

namespace {

using aad::core::BatchMode;
using aad::core::DevicePolicy;
using aad::core::DispatchPolicy;
using aad::mcu::PolicyKind;

constexpr DevicePolicy kDevices[] = {DevicePolicy::kFifo,
                                     DevicePolicy::kResidentFirst,
                                     DevicePolicy::kShortestReconfigFirst};
constexpr BatchMode kBatches[] = {BatchMode::kNone, BatchMode::kGreedy,
                                  BatchMode::kWindowed};
constexpr DispatchPolicy kDispatch[] = {DispatchPolicy::kRoundRobin,
                                        DispatchPolicy::kLeastQueued,
                                        DispatchPolicy::kResidencyAffinity};
constexpr PolicyKind kPolicies[] = {PolicyKind::kLru, PolicyKind::kFifo,
                                    PolicyKind::kLfu, PolicyKind::kRandom,
                                    PolicyKind::kBelady};

aad::harness::HarnessConfig base_config(std::uint64_t seed, bool pressure) {
  aad::harness::HarnessConfig hc;
  hc.seed = seed;
  hc.dispatch = kDispatch[seed % 3];
  hc.policy = kPolicies[seed % 5];
  // Deaths and corruptions compressed into the traffic window.
  hc.death_rate_per_ms = 0.3;
  hc.mean_downtime = aad::sim::SimTime::us(400);
  hc.corruption_rate_per_ms = 0.2;
  hc.fault_horizon = aad::sim::SimTime::ms(3);
  hc.prefetch_confidence = 0.3;
  if (pressure) {
    hc.cards = 2;
    hc.frames = 24;
    hc.clients = 6;
    hc.bursts = 3;
    hc.burst_size = 2;
    hc.zipf_s = 0.3;
  } else {
    hc.clients = 4;
    hc.bursts = 2;
    hc.burst_size = 4;
  }
  return hc;
}

}  // namespace

int main() {
  const unsigned seeds = aad::harness::invariant_seed_count();
  for (unsigned s = 0; s < seeds; ++s) {
    const std::uint64_t seed = 5000 + s;
    for (const bool pressure : {false, true})
      for (const DevicePolicy device : kDevices)
        for (const BatchMode batch : kBatches)
          for (const bool delta : {false, true})
            for (const bool overlap : {false, true})
              for (const bool prefetch : {false, true}) {
                aad::harness::HarnessConfig hc = base_config(seed, pressure);
                hc.device = device;
                hc.batch.mode = batch;
                hc.delta_reconfig = delta;
                hc.overlap_reconfig = overlap;
                hc.prefetch = prefetch;
                aad::harness::InvariantHarness harness(hc);
                harness.run();
                std::printf(
                    "seed=%llu shape=%s device=%s batch=%s delta=%d "
                    "overlap=%d prefetch=%d digest=%016llx\n",
                    static_cast<unsigned long long>(seed),
                    pressure ? "tight" : "roomy", to_string(device),
                    to_string(batch), delta, overlap, prefetch,
                    static_cast<unsigned long long>(harness.digest()));
              }
  }
  return 0;
}
