#include "mcu/runtime.h"

#include "common/error.h"

namespace aad::mcu {

void RuntimeRegistry::register_netlist_driver(std::uint32_t kernel_id,
                                              NetlistDriver driver) {
  AAD_REQUIRE(driver != nullptr, "null netlist driver");
  const auto [it, inserted] = netlist_.emplace(kernel_id, std::move(driver));
  (void)it;
  AAD_REQUIRE(inserted, "netlist driver already registered");
}

void RuntimeRegistry::register_behavioral(std::uint32_t kernel_id,
                                          BehavioralModel model) {
  AAD_REQUIRE(model.compute != nullptr && model.cycles != nullptr,
              "behavioral model incomplete");
  const auto [it, inserted] = behavioral_.emplace(kernel_id, std::move(model));
  (void)it;
  AAD_REQUIRE(inserted, "behavioral model already registered");
}

const NetlistDriver* RuntimeRegistry::find_netlist_driver(
    std::uint32_t kernel_id) const {
  const auto it = netlist_.find(kernel_id);
  return it == netlist_.end() ? nullptr : &it->second;
}

const BehavioralModel& RuntimeRegistry::behavioral(
    std::uint32_t kernel_id) const {
  const auto it = behavioral_.find(kernel_id);
  AAD_REQUIRE(it != behavioral_.end(),
              "no behavioral model for kernel " + std::to_string(kernel_id));
  return it->second;
}

HardwareResult RuntimeRegistry::run_combinational(
    netlist::LutExecutor& executor, ByteSpan input) {
  HardwareResult hw{Bytes(executor.output_bytes()), 1};
  executor.step(input, hw.output);
  return hw;
}

}  // namespace aad::mcu
