// The algorithm bank: every function the co-processor can execute
// on demand, with
//   * a golden software implementation (also the host-only baseline),
//   * a bitstream builder (real mapped netlist, or realistic behavioral
//     stream per DESIGN.md's substitution policy),
//   * a fabric cycle model (netlist kernels count real executor cycles;
//     behavioral kernels use a calibrated per-block model),
//   * for netlist kernels with a sequential bus protocol, the driver that
//     frames bytes onto the resident LUT network,
//   * a host-CPU time model for the speedup experiment (E4), representing
//     a ~3 GHz 2005-era desktop running the same software implementation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bitstream/bitstream.h"
#include "common/bytebuffer.h"
#include "netlist/lutnetwork.h"
#include "sim/time.h"

namespace aad::algorithms {

// How the microcontroller runs a resident function (Mcu::execute_invoke).
// Netlist functions execute *from the configuration plane*: after every
// (re)configuration the MCU extracts the LUT network out of the configured
// frames and compiles it into a netlist::LutExecutor, which it then steps.  Buses cross that boundary packed: input bus bit i is
// bit i % 8 of byte i / 8 (LSB-first, short inputs zero-padded), and the
// output bus comes back as ceil(output_width / 8) bytes framed the same way.
// A kernel's NetlistDriver describes its data framing (how bytes map to
// input-bus beats and output bits back to bytes); kernels without one run
// the default single-shot combinational contract (run_combinational).
// Behavioral functions (the documented substitution for kernels too large
// to gate-map) take their bytes from the kernel's `software` and charge
// fabric time from its `fabric_cycles`.

struct HardwareResult {
  Bytes output;
  std::int64_t cycles = 0;  ///< fabric clock cycles consumed
};

/// Drives a resident netlist function for one invocation.
using NetlistDriver = HardwareResult (*)(netlist::LutExecutor&, ByteSpan);

/// The default netlist contract: the input bytes are the packed input bus
/// (zero-padded; more bytes than the bus holds is an error), one
/// combinational step, and the packed output bus back.
HardwareResult run_combinational(netlist::LutExecutor& executor,
                                 ByteSpan input);

enum class KernelId : std::uint32_t {
  // Netlist kernels: really placed, configured and executed from the
  // simulated fabric's configuration plane.
  kAdder32 = 1,
  kParity32 = 2,
  kPopcount32 = 3,
  kComparator32 = 4,
  kGray32 = 5,
  kMul8 = 6,
  kCrc32 = 7,
  kLfsr32 = 8,
  // Behavioral kernels: software-exact compute + calibrated cycle model
  // behind a realistic synthesized bitstream.
  kAes128 = 100,
  kDes = 101,
  kXtea = 102,
  kSha1 = 103,
  kSha256 = 104,
  kMd5 = 105,
  kMatMul = 106,
  kFft = 107,
  kFir16 = 108,
  kModExp = 109,  ///< RSA-style 1024-bit modular exponentiation
};

struct KernelSpec {
  KernelId id;
  std::string name;
  bitstream::FunctionKind kind;
  std::uint32_t input_width = 0;   ///< input bus bits per fabric cycle
  std::uint32_t output_width = 0;  ///< output bus bits per fabric cycle
  /// Frames a default-geometry build occupies (behavioral: fixed footprint;
  /// netlist: what the mapper+packer produced for the 16-row geometry).
  unsigned nominal_frames = 0;

  /// Golden software implementation (bit-exact with the hardware path).
  std::function<Bytes(ByteSpan)> software;
  /// Fabric cycles for `input_bytes` (behavioral kernels only; netlist
  /// kernels report real executor cycles at run time).
  std::function<std::int64_t(std::size_t)> fabric_cycles;
  /// Netlist kernels with a sequential bus protocol (crc32, lfsr32): how
  /// the MCU drives the resident network.  Null runs run_combinational.
  NetlistDriver driver = nullptr;
  /// Host-only execution time for `input_bytes` (E4 baseline).
  std::function<sim::SimTime(std::size_t)> host_time;
  /// Build the configuration bitstream for `geometry`.
  std::function<bitstream::Bitstream(const fabric::FrameGeometry&)>
      make_bitstream;

  /// Canonical example input of `blocks` payload units (tests/benches).
  std::function<Bytes(std::size_t blocks, std::uint64_t seed)> make_input;
};

/// All kernels, netlist first.
const std::vector<KernelSpec>& catalog();

/// Lookup; throws kNotFound for an unknown id.
const KernelSpec& spec(KernelId id);

/// The catalog kernel whose function id is `kernel_id` (a bitstream's or
/// ROM record's kernel_id), or nullptr when the catalog has none.
const KernelSpec* find_spec(std::uint32_t kernel_id);

/// The ROM/MCU function id of a kernel (stable across runs).
constexpr std::uint32_t function_id(KernelId id) noexcept {
  return static_cast<std::uint32_t>(id);
}

/// Every catalog kernel's function id, in catalog order — the full bank
/// that multi-client traces draw from.  Tests, benches and examples share
/// this instead of each re-enumerating the catalog.
std::vector<std::uint32_t> function_bank();

/// Canonical request payload for a provisioned `function` id: the kernel's
/// make_input under a caller-chosen seed.  The workload::replay companion —
/// wrap it to mix a trace-local seed base with the request index.
Bytes bank_input(std::uint32_t function, std::size_t blocks,
                 std::uint64_t seed);

}  // namespace aad::algorithms
