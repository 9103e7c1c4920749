// The traced run: per-layer metrics of one workload.
//
// Host-time metrics time public calls of each layer from the benchmark's
// own code (golden models, CRC, codec decode, MCU load round trips, netlist
// invokes, a standalone event scheduler, dispatch previews, stats, bitstream
// builds, ROM stores).  Simulated-time metrics are read from the fleet's
// stats(), its cards' registry().snapshot() and an attached TraceSink.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct LayerReport {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = false;
};

/// Run `workload` untraced and traced on `seed` and measure each layer;
/// the host probes repeat until about `seconds` of host time is spent.
LayerReport measure_layers(const Workload& workload, std::uint64_t seed,
                           double seconds);

}  // namespace perfbench
