// Local RAM: the staging buffer between the PCI interface and the data
// input / output-collection modules (paper §2.3).  Inputs land here before
// being fed to the fabric; outputs are collected here before the PCI
// read-back.  The simulator models only what the part costs — its access
// time here and its capacity (McuConfig::ram_capacity, checked per
// invocation) — not the bytes it holds.
#pragma once

#include <cstdint>

#include "sim/time.h"

namespace aad::memory {

struct RamTiming {
  sim::Frequency clock = sim::Frequency::mhz(100);  // SRAM @ MCU bus speed
  unsigned words_per_cycle = 2;  // 64-bit local SRAM bus

  sim::SimTime access_time(std::size_t bytes) const noexcept {
    const std::size_t words = (bytes + 3) / 4;
    return clock.cycles(static_cast<std::int64_t>(
        (words + words_per_cycle - 1) / words_per_cycle));
  }
};

}  // namespace aad::memory
