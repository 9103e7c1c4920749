// AgileCoprocessor: the public API of the library — the single-chip
// PCI-card system of Figure 1 assembled end to end.
//
//   host (this API)
//     └─ PCI bus model ── microcontroller ── ROM / local RAM
//                              └─ configuration module ── partially
//                                 reconfigurable fabric (frames, CLBs)
//
// Typical use:
//
//   aad::core::AgileCoprocessor cp;
//   cp.download(aad::algorithms::KernelId::kAes128);    // provision ROM
//   auto r = cp.invoke(aad::algorithms::KernelId::kAes128, input);
//   // r.output       — the function result (bit-exact with software)
//   // r.latency()    — simulated end-to-end time, reconfiguration included
//   // r.load, r.load_stages, r.evict_time() — where the time went
//
// Every method advances the embedded discrete-event clock.  invoke() is a
// one-request run of a CoprocessorServer (core/server.h) on this card, so
// it returns the same ServerRequest record, with the same stage breakdown,
// as the event-driven path.
#pragma once

#include <memory>
#include <optional>

#include "algorithms/kernels.h"
#include "core/request.h"
#include "fabric/fabric.h"
#include "mcu/mcu.h"
#include "pci/pci.h"
#include "sim/scheduler.h"
#include "telemetry/registry.h"

namespace aad::core {

struct CoprocessorConfig {
  fabric::Fabric::Config fabric;
  mcu::McuConfig mcu;
  pci::PciTiming pci;
};

struct HostOutcome {
  Bytes output;
  sim::SimTime latency;       ///< host-only software execution time
};

struct CoprocessorStats {
  mcu::McuStats device;
  pci::PciStats bus;
  sim::SimTime uptime;        ///< simulated time since construction
};

class AgileCoprocessor {
 public:
  /// A standalone card: owns its discrete-event scheduler.
  explicit AgileCoprocessor(const CoprocessorConfig& config = {});

  /// A card driven by an external scheduler shared with other cards (the
  /// CoprocessorFleet path): all cards see one simulated clock, so
  /// cross-card overlap is simulated faithfully.  `scheduler` must outlive
  /// the card.  Caution: the synchronous paths (invoke, preload, evict,
  /// provisioning) advance the SHARED clock — only use them while the other
  /// owners of the scheduler are quiescent (the fleet's download_* calls,
  /// benches between runs).  invoke() checks this and throws when the
  /// scheduler has events pending.
  AgileCoprocessor(const CoprocessorConfig& config, sim::Scheduler& scheduler);

  // --- provisioning ---------------------------------------------------------

  /// Build the kernel's bitstream for this device, compress it and download
  /// it into the card's ROM over PCI.  Returns the ROM record.
  memory::RomRecord download(
      algorithms::KernelId kernel,
      std::optional<compress::CodecId> codec = std::nullopt);

  /// Download a caller-supplied bitstream under an explicit function id.
  memory::RomRecord download_bitstream(
      memory::FunctionId id, const bitstream::Bitstream& bitstream,
      std::optional<compress::CodecId> codec = std::nullopt);

  /// Download every kernel in the catalog (convenience for experiments).
  void download_all(std::optional<compress::CodecId> codec = std::nullopt);

  // --- execution ------------------------------------------------------------

  /// Execute `kernel` on `input` via the card (reconfiguring on demand):
  /// submit it to a fresh CoprocessorServer (default ServerConfig) on this
  /// card, run that server to completion and return the request's record.
  /// Requires a scheduler with no pending events (kInvalidArgument
  /// otherwise): the run drains the whole queue, so it would execute other
  /// owners' events too.  Throws kCorruptData when the load is rejected on
  /// a CRC mismatch the re-fetch path cannot repair.  The run counts in the
  /// card's `server.*` registry counters, which every server on the card
  /// shares.
  ServerRequest invoke(algorithms::KernelId kernel, ByteSpan input);

  /// Execute an arbitrary provisioned function id.
  ServerRequest invoke_function(memory::FunctionId id, ByteSpan input);

  /// Host-only baseline: same computation, no card (E4's comparator).
  HostOutcome run_on_host(algorithms::KernelId kernel, ByteSpan input);

  /// Preload a kernel without executing (host-directed warm-up).
  mcu::LoadResult preload(algorithms::KernelId kernel);
  /// Host-directed swap-out.
  void evict(algorithms::KernelId kernel);

  /// PCI command setup cost: `registers` doorbell writes + one status poll.
  /// (Shared with the event-driven CoprocessorServer.)
  sim::SimTime pci_command_overhead(unsigned registers);

  // --- introspection ----------------------------------------------------------
  CoprocessorStats stats() const;
  sim::SimTime now() const noexcept { return scheduler_.now(); }
  sim::Scheduler& scheduler() noexcept { return scheduler_; }
  /// This card's perf-counter registry: every `mcu.*` / `server.*` counter
  /// the card's subsystems registered, enumerable via snapshot().
  telemetry::Registry& registry() noexcept { return registry_; }
  const telemetry::Registry& registry() const noexcept { return registry_; }
  const fabric::Fabric& fabric() const noexcept { return fabric_; }
  mcu::Mcu& mcu() noexcept { return mcu_; }
  const mcu::Mcu& mcu() const noexcept { return mcu_; }
  pci::PciBus& bus() noexcept { return bus_; }

 private:
  AgileCoprocessor(const CoprocessorConfig& config,
                   std::unique_ptr<sim::Scheduler> owned,
                   sim::Scheduler* shared);

  std::unique_ptr<sim::Scheduler> owned_scheduler_;  ///< null when shared
  sim::Scheduler& scheduler_;
  telemetry::Registry registry_;  ///< before mcu_: subsystems register here
  fabric::Fabric fabric_;
  pci::PciBus bus_;
  mcu::RuntimeRegistry runtime_;
  mcu::Mcu mcu_;
};

}  // namespace aad::core
