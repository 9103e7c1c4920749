// LUT4 technology mapper: lowers a gate-level Netlist to a LutNetwork.
//
// Mapping strategy (classic greedy structural mapping):
//   * buffers are aliased away;
//   * inverters with any fanout are *absorbed* into consumer truth tables
//     (polarity folding), so a NOT never costs a LUT;
//   * each remaining 2/3-input gate becomes one LUT4;
//   * DFFs become FF slots whose LUT routes the D signal;
//   * output bits driven by primary inputs/constants/folded inverters get a
//     pass-through LUT so the data-collection module always reads slots.
#pragma once

#include "netlist/lutnetwork.h"
#include "netlist/netlist.h"

namespace aad::netlist {

struct MapStats {
  std::size_t gates_in = 0;       ///< logic gates in the source netlist
  std::size_t luts_out = 0;       ///< slots emitted
  std::size_t ffs_out = 0;
  std::size_t inverters_folded = 0;
  std::size_t buffers_elided = 0;
  std::size_t passthroughs_added = 0;
};

/// Map `netlist` to a LUT4 network.  The result validates and, by
/// construction, computes the same function (tests/test_lutmap.cpp checks
/// it against the gate-level oracle in tests/netlist_oracle.h).
LutNetwork map_to_luts(const Netlist& netlist, MapStats* stats = nullptr);

}  // namespace aad::netlist
