// Experiment E8 — the fabric/netlist substrate: what each netlist kernel
// costs on the device once technology-mapped.
//
// Reports gate, LUT and flip-flop counts per netlist kernel and the frames
// and configuration bytes its encoded bitstream occupies.
#include "bench_util.h"

#include "fabric/clbcodec.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"

namespace {

using namespace aad;

void network_size_table() {
  std::puts("\n=== E8: mapped netlist kernels on the 48x16 device ===");
  const std::vector<int> widths = {12, 8, 8, 8, 8, 10};
  bench::print_row({"kernel", "gates", "luts", "ffs", "frames", "config B"},
                   widths);
  bench::print_rule(widths);

  struct Item {
    const char* name;
    netlist::Netlist nl;
  };
  std::vector<Item> items;
  items.push_back({"add32", netlist::make_ripple_adder(32)});
  items.push_back({"parity32", netlist::make_parity(32)});
  items.push_back({"popcnt32", netlist::make_popcount(32)});
  items.push_back({"cmp32", netlist::make_comparator(32)});
  items.push_back({"gray32", netlist::make_gray_encoder(32)});
  items.push_back({"mul8", netlist::make_array_multiplier(8)});
  items.push_back({"crc32", netlist::make_crc32_datapath()});
  items.push_back({"lfsr32", netlist::make_lfsr(32, {0, 1, 21, 31})});

  const fabric::FrameGeometry geometry;
  for (const auto& item : items) {
    netlist::MapStats stats;
    const auto mapped = netlist::map_to_luts(item.nl, &stats);
    const auto frames = fabric::encode_frames(mapped, geometry);
    bench::print_row(
        {item.name, std::to_string(item.nl.logic_gate_count()),
         std::to_string(mapped.lut_count()),
         std::to_string(mapped.ff_count()), std::to_string(frames.size()),
         std::to_string(frames.size() * geometry.frame_bytes())},
        widths);
  }
}

}  // namespace

void run_experiment() { network_size_table(); }
