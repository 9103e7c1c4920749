#include "fabric/fabric.h"

namespace aad::fabric {

Fabric::Fabric() : Fabric(Config{}) {}

Fabric::Fabric(const Config& config)
    : config_(config), memory_(config.geometry) {
  config_.geometry.validate();
}

sim::SimTime Fabric::configure_frame(FrameIndex frame,
                                     std::span<const Word> words) {
  memory_.write_frame(frame, words);
  return config_.port.frame_time(config_.geometry);
}

void Fabric::erase() { memory_.clear(); }

netlist::LutNetwork Fabric::extract_network(
    std::span<const FrameIndex> frames, const std::string& name,
    std::size_t input_width, std::size_t output_width) const {
  std::vector<std::vector<Word>> payloads;
  payloads.reserve(frames.size());
  for (FrameIndex f : frames) {
    const auto span = memory_.read_frame(f);
    payloads.emplace_back(span.begin(), span.end());
  }
  return decode_frames(payloads, config_.geometry, name, input_width,
                       output_width);
}

}  // namespace aad::fabric
