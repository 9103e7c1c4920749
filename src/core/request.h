// ServerRequest: one request's record — what it asked for, what it
// produced and where its time went.  Both invoke paths return it: the
// CoprocessorServer keeps one per completed request, and the synchronous
// AgileCoprocessor::invoke is a one-request server run that hands back the
// record of that run.  The stage breakdown is defined once, in server.cpp.
#pragma once

#include <cstdint>

#include "common/bytebuffer.h"
#include "mcu/mcu.h"
#include "memory/rom.h"
#include "sim/time.h"

namespace aad::core {

/// Why a request surfaced as failed instead of completing with output.
enum class FailReason : std::uint8_t {
  kNone = 0,
  kCardDeath,   ///< the card powered off with the request on it, no survivor
  kTimeout,     ///< the fleet's watchdog expired and retries were exhausted
  kCrcReject,   ///< corrupted bitstream: load rejected even after re-fetch
};

/// One completed (or in-flight) request, with its full time breakdown.
///
/// A successful request that paid its own load (every request without
/// batching, and each batch's leader) has stages that add up to its latency
/// in integer picoseconds:
///
///   latency() == bus_wait() + pci_in_time + engine_wait() + decode_time
///                + evict_time() + load.reconfig_time + fabric_wait
///                + execute_time + pci_out_time
///
/// (the three waits are zero on an idle card).  The derived values are
/// accessors over the timestamps instead of stored fields, which keeps the
/// record small — a server retains one per request.  They are meaningful on
/// successful records only: a failed record's unreached stages are zero.
struct ServerRequest {
  /// This server's submission order, dense from 0.  A fleet-level failed
  /// record (CoprocessorFleet: no survivor, retries exhausted) carries the
  /// id and submit_time of the request's last placement on a card, or 0
  /// and the failure instant when it failed at dispatch.
  std::uint64_t id = 0;
  unsigned client = 0;           ///< logical client that issued it
  memory::FunctionId function = 0;
  Bytes output;
  mcu::LoadResult load;          ///< hit/miss + reconfiguration breakdown
  /// Where the load's reconfig_time went (rom / decompress / configure /
  /// firmware stage sums); zero on a hit.
  mcu::LoadStages load_stages;
  std::int64_t exec_cycles = 0;

  sim::SimTime submit_time;      ///< arrival at the host driver
  sim::SimTime pci_in_start;     ///< bus granted for the input DMA
  sim::SimTime device_start;     ///< config engine begins firmware decode
  sim::SimTime fabric_start;     ///< fabric begins RAM staging + execution
  sim::SimTime pci_out_start;    ///< bus granted for the output DMA
  sim::SimTime complete_time;    ///< host observes completion

  sim::SimTime pci_in_time;      ///< command setup + input DMA occupancy
  sim::SimTime decode_time;      ///< firmware command decode
  sim::SimTime prepare_time;     ///< decode + eviction + reconfiguration
  sim::SimTime execute_time;     ///< RAM staging + fabric execution
  sim::SimTime pci_out_time;     ///< output DMA + status occupancy
  sim::SimTime fabric_wait;      ///< load done -> fabric grant
  /// Reconfiguration (+eviction) time that ran while another request's
  /// fabric execution was still in flight — the overlap win.  Zero when the
  /// load was a hit, the fabric was idle, or overlap is disabled.
  sim::SimTime hidden_reconfig;

  // Batch accounting (BatchConfig).  Without batching every
  // request is its own batch of one.
  /// Device commit this request rode: dense over the card's lifetime,
  /// across every server the card has had.
  std::uint64_t batch_id = 0;
  std::uint32_t batch_size = 1;  ///< members of that commit
  /// True when this request shared a batch-mate's decode + load instead of
  /// paying its own engine occupancy (decode_time and prepare_time are
  /// zero; the load was the batch leader's).
  bool coalesced_load = false;

  /// Terminal failure: the request is done (its completion hook fired
  /// exactly once) but produced no output.  Failed records are excluded
  /// from latency/throughput statistics.
  bool failed = false;
  FailReason fail_reason = FailReason::kNone;

  sim::SimTime latency() const noexcept { return complete_time - submit_time; }
  /// Input DMA done; the request entered the device queue.
  sim::SimTime device_ready() const noexcept {
    return pci_in_start + pci_in_time;
  }
  /// device_ready -> config engine grant.
  sim::SimTime engine_wait() const noexcept {
    return device_start - device_ready();
  }
  /// engine_wait + fabric_wait.
  sim::SimTime device_wait() const noexcept {
    return engine_wait() + fabric_wait;
  }
  /// PCI arbitration queuing delay, input and output transfers together.
  sim::SimTime bus_wait() const noexcept {
    return (pci_in_start - submit_time) +
           (pci_out_start - fabric_start - execute_time);
  }
  /// Making room before the stream: eviction firmware plus any
  /// defragmentation pass.  Zero on a hit and on loads that fit free frames.
  sim::SimTime evict_time() const noexcept {
    return prepare_time - decode_time - load.reconfig_time;
  }
};

}  // namespace aad::core
