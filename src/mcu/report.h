// Human-readable mini-OS state reports: the frame-occupancy map and the
// Frame Replacement Table, for examples and debugging.
#pragma once

#include <string>

#include "mcu/mcu.h"

namespace aad::mcu {

/// One-line device map, one character per frame:
///   '.' free, 'A'..'Z' resident functions (in frame-table order), '?'
///   beyond 26 residents.  E.g. "AAAAAAAAAAAABBBB....CCCCCCCCCCCCCC......".
std::string frame_map(const Mcu& mcu);

/// Multi-line rendering of the paper's Frame Replacement Table: function,
/// frames occupied, last-access timestamp, access count.
std::string frame_table_report(const Mcu& mcu);

}  // namespace aad::mcu
