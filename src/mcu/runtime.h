// Function runtime registry: how the microcontroller turns input bytes into
// output bytes once a function is resident on the fabric.
//
// Netlist functions execute *from the configuration plane*: after every
// (re)configuration the MCU extracts the LUT network out of the configured
// frames and compiles it into a netlist::LutExecutor, which it then steps.
// Buses cross that boundary packed: input bus bit i is bit i % 8 of byte
// i / 8 (LSB-first, short inputs zero-padded), and the output bus comes back
// as ceil(output_width / 8) bytes framed the same way.  A per-kernel
// NetlistDriver describes the data framing (how bytes map to input-bus beats
// and output bits back to bytes); kernels without a registered driver get
// the default single-shot combinational contract.
//
// Behavioral functions (the documented substitution for kernels too large
// to gate-map) pair a software-exact compute with a calibrated cycle model;
// the MCU charges fabric time from the model and takes the bytes from the
// compute.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>

#include "common/bytebuffer.h"
#include "netlist/lutnetwork.h"

namespace aad::mcu {

struct HardwareResult {
  Bytes output;
  std::int64_t cycles = 0;  ///< fabric clock cycles consumed
};

/// Drives a resident netlist function for one invocation.
using NetlistDriver =
    std::function<HardwareResult(netlist::LutExecutor&, ByteSpan)>;

struct BehavioralModel {
  /// Bit-exact computation (the golden software implementation).
  std::function<Bytes(ByteSpan)> compute;
  /// Fabric cycles the hardware implementation would take on `input_bytes`.
  std::function<std::int64_t(std::size_t input_bytes)> cycles;
};

class RuntimeRegistry {
 public:
  void register_netlist_driver(std::uint32_t kernel_id, NetlistDriver driver);
  void register_behavioral(std::uint32_t kernel_id, BehavioralModel model);

  /// The kernel's custom driver, or nullptr when it runs the default
  /// combinational contract.
  const NetlistDriver* find_netlist_driver(std::uint32_t kernel_id) const;
  const BehavioralModel& behavioral(std::uint32_t kernel_id) const;

  /// Default framing for unregistered netlist kernels: the input bytes are
  /// the packed input bus (zero-padded; more bytes than the bus holds is an
  /// error), one combinational step, and the packed output bus back.
  static HardwareResult run_combinational(netlist::LutExecutor& executor,
                                          ByteSpan input);

 private:
  std::map<std::uint32_t, NetlistDriver> netlist_;
  std::map<std::uint32_t, BehavioralModel> behavioral_;
};

}  // namespace aad::mcu
