#include "mcu/report.h"

#include <sstream>

#include "sim/scheduler.h"

namespace aad::mcu {

std::string frame_map(const Mcu& mcu) {
  const unsigned frames = mcu.free_frames().frame_count();
  std::string map(frames, '.');
  char label = 'A';
  for (const auto& [id, entry] : mcu.frame_table()) {
    (void)id;
    const char c = label <= 'Z' ? label : '?';
    for (fabric::FrameIndex f : entry.frames)
      if (f < frames) map[f] = c;
    ++label;
  }
  return map;
}

std::string frame_table_report(const Mcu& mcu) {
  std::ostringstream out;
  out << "Frame Replacement Table (" << mcu.frame_table().size()
      << " resident):\n";
  char label = 'A';
  for (const auto& [id, entry] : mcu.frame_table()) {
    out << "  [" << (label <= 'Z' ? label : '?') << "] fn " << id << ": "
        << entry.frames.size() << " frames {";
    for (std::size_t i = 0; i < entry.frames.size(); ++i) {
      if (i) out << ",";
      if (i == 4 && entry.frames.size() > 5) {
        out << "...";
        break;
      }
      out << entry.frames[i];
    }
    out << "} last-access " << sim::to_string(entry.last_access)
        << " accesses " << entry.access_count << "\n";
    ++label;
  }
  return out.str();
}

}  // namespace aad::mcu
