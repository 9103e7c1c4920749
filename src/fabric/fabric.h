// The simulated partially reconfigurable FPGA device.
//
// Combines the configuration plane (ConfigMemory), the configuration-port
// timing model, and a fabric clock.  Functions whose bitstreams carry real
// LUT networks are *executed from the configuration plane*: the device
// decodes the slots of the function's frames (in load order) back into a
// LutNetwork and steps it — so a bad partial reconfiguration genuinely
// produces wrong results, just like real hardware.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "fabric/clbcodec.h"
#include "fabric/config_memory.h"
#include "fabric/config_port.h"
#include "netlist/lutnetwork.h"
#include "sim/time.h"

namespace aad::fabric {

class Fabric {
 public:
  struct Config {
    FrameGeometry geometry;
    ConfigPortModel port;
    sim::Frequency clock = sim::Frequency::mhz(100);
  };

  Fabric();  // default device (48x16 geometry, SelectMAP8 @ 50 MHz)
  explicit Fabric(const Config& config);

  const FrameGeometry& geometry() const noexcept { return config_.geometry; }
  const ConfigPortModel& port() const noexcept { return config_.port; }
  sim::Frequency clock() const noexcept { return config_.clock; }
  const ConfigMemory& memory() const noexcept { return memory_; }

  /// Partially reconfigure one frame; returns the config-port time spent.
  sim::SimTime configure_frame(FrameIndex frame, std::span<const Word> words);

  /// Erase the configuration plane (no timing; models power-up).
  void erase();

  /// Rebuild the executable LUT network of a function occupying `frames`
  /// *in logical (load) order*.  Frames need not be contiguous.  Like
  /// decode_frames, checks the encoding but not the network's structure.
  netlist::LutNetwork extract_network(std::span<const FrameIndex> frames,
                                      const std::string& name,
                                      std::size_t input_width,
                                      std::size_t output_width) const;

  /// Duration of `cycles` fabric clock cycles.
  sim::SimTime execution_time(std::int64_t cycles) const noexcept {
    return config_.clock.cycles(cycles);
  }

 private:
  Config config_;
  ConfigMemory memory_;
};

}  // namespace aad::fabric
