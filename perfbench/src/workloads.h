// The benchmark's workloads and the machinery one repetition runs through.
//
// A repetition is: provision a fresh fleet (construction + download_all on
// every card) and generate one sub-trace and its payloads from a seed — the
// set-up — then replay the sub-trace and run the fleet to completion — the
// timed phase — then read the outcome back from the fleet's request
// records, outside any timing.
//
// A run's seed expands into `subtraces` independent sub-trace seeds, and
// the simulated metrics come from one pass over them: open-loop tails form
// in correlated busy periods, and each sub-trace places kernels on cards
// afresh, so several independent sub-traces give steadier figures than one
// long trace.  The simulator is deterministic, so every later repetition of
// a sub-trace must reproduce its first outcome digest.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytebuffer.h"
#include "core/fleet.h"
#include "sim/time.h"
#include "workload/multiclient.h"

namespace perfbench {

struct Workload {
  std::string name;
  unsigned cards = 1;
  /// The traffic generator (a workload::make_* call) for one sub-trace seed.
  std::function<aad::workload::MultiClientTrace(std::uint64_t seed)> traffic;
  /// Fixed simulated submit-to-complete limit for sim_slo_met_ratio.
  aad::sim::SimTime slo;
  /// Independent sub-traces the simulated metrics pool over.
  unsigned subtraces = 1;
};

/// The workload named `name`; throws std::invalid_argument when unknown.
const Workload& find_workload(const std::string& name);

/// The seed of sub-trace `k` of a run seeded with `seed`.
std::uint64_t subtrace_seed(std::uint64_t seed, unsigned k);

/// Request payloads, generated from the seed during set-up and addressed
/// the way workload::replay asks for them: by (function, per-client index).
/// Two clients drawing the same function at the same index share a payload.
class PayloadTable {
 public:
  PayloadTable(const aad::workload::MultiClientTrace& trace,
               std::uint64_t seed);
  const aad::Bytes& at(std::uint32_t function, std::size_t index) const {
    return rows_[static_cast<std::size_t>(slot_[function])][index];
  }

 private:
  std::vector<int> slot_;                     ///< function id -> row
  std::vector<std::vector<aad::Bytes>> rows_;  ///< row -> index -> payload
};

/// One provisioned repetition: the fleet and everything generated for it.
struct Rep {
  std::unique_ptr<aad::core::CoprocessorFleet> fleet;
  aad::workload::MultiClientTrace trace;
  std::unique_ptr<PayloadTable> payloads;
  double setup_s = 0.0;      ///< host seconds spent provisioning this rep
  aad::sim::SimTime start;   ///< simulated time the replay began
};

/// Latency statistics skip requests submitted in the first kWarmup of
/// simulated time of each sub-trace: every sub-trace starts on cold
/// fabrics, and on the open-loop workloads the first configuration loads
/// hold up the requests of the first ~3 ms.  Those requests still count as
/// attempted and are checked.
inline constexpr aad::sim::SimTime kWarmup = aad::sim::SimTime::ms(4);

/// Build the fleet, download every kernel to every card, and generate the
/// sub-trace and payloads — timed as the rep's set-up.
std::unique_ptr<Rep> provision(const Workload& workload, std::uint64_t seed);

struct DriveResult {
  double host_s = 0.0;        ///< host seconds of replay + fleet.run()
  std::size_t events = 0;     ///< simulator events fleet.run() executed
  std::size_t heap_depth = 0; ///< live events right after replay
};

/// The timed phase: workload::replay plus fleet.run().
DriveResult drive(Rep& rep);

/// What a repetition produced, read from the fleet's request records.
struct Outcome {
  std::uint64_t attempted = 0;   ///< requests in the sub-trace
  std::uint64_t completed = 0;   ///< completed by the simulator, not failed
  std::uint64_t verified = 0;    ///< completed and not found wrong
  std::uint64_t failed = 0;      ///< attempted - verified
  std::uint64_t wrong = 0;       ///< wrong output, unpaired or extra record
  std::uint64_t checked = 0;     ///< outputs compared with software
  std::uint64_t measured = 0;    ///< attempted after the warm-up window
  std::uint64_t slo_met = 0;     ///< measured, verified, within the limit
  aad::sim::SimTime makespan;    ///< first submission -> last completion
  /// Of the completed requests submitted after the warm-up window.
  std::vector<aad::sim::SimTime> latencies;
  std::uint64_t digest = 0;      ///< FNV-1a over every record, client order
};

/// Which outputs the golden-model check compares.  Every netlist kernel
/// and every cheap behavioral kernel is checked in full; 256-bit modexp
/// runs the same golden code inside the simulator and costs ~10 ms of host
/// time per call, so it is checked on every 8th request of each client.
bool output_checked(std::uint32_t function, std::size_t index);

/// Read the outcome of a finished rep.  With `check_outputs`, compare the
/// sampled outputs against KernelSpec::software on the same payloads.
Outcome analyse(const Workload& workload, const Rep& rep, bool check_outputs);

}  // namespace perfbench
