#include "sim/trace.h"

#include <sstream>

namespace aad::sim {

const char* to_string(Stage stage) noexcept {
  switch (stage) {
    case Stage::kHostPci: return "host-pci";
    case Stage::kRom: return "rom";
    case Stage::kRam: return "ram";
    case Stage::kDecompress: return "decompress";
    case Stage::kConfigure: return "configure";
    case Stage::kDataIn: return "data-in";
    case Stage::kExecute: return "execute";
    case Stage::kDataOut: return "data-out";
    case Stage::kFirmware: return "firmware";
  }
  return "unknown";
}

void Trace::record(Stage stage, std::string label, SimTime begin, SimTime end) {
  if (!enabled_) return;
  spans_.push_back(Span{stage, std::move(label), begin, end});
}

void Trace::record(Stage stage, std::string_view name, std::string_view suffix,
                   SimTime begin, SimTime end,
                   std::optional<std::uint64_t> index) {
  if (!enabled_) return;
  std::string label(name);
  label += suffix;
  if (index) label += std::to_string(*index);
  spans_.push_back(Span{stage, std::move(label), begin, end});
}

std::map<Stage, SimTime> Trace::stage_totals() const {
  std::map<Stage, SimTime> totals;
  for (const Span& span : spans_) totals[span.stage] += span.duration();
  return totals;
}

std::string Trace::summary() const {
  std::ostringstream out;
  out << "trace: " << spans_.size() << " spans\n";
  for (const auto& [stage, total] : stage_totals())
    out << "  " << to_string(stage) << ": " << to_string(total) << "\n";
  return out.str();
}

}  // namespace aad::sim
