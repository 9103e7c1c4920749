// Experiment E6 — PCI transfer cost vs payload size (paper §2.3: "each data
// transfer is a multiple of the width of the interface bus").
//
// Expected shape: per-transfer overhead dominates below ~1 KiB (throughput
// climbs with size), then saturates near the 133 MB/s bus ceiling; DMA
// bursts beat programmed I/O by an order of magnitude.
#include "bench_util.h"

#include "pci/pci.h"

namespace {

using namespace aad;

void transfer_table() {
  std::puts("\n=== E6: PCI 32/33 transfer cost vs payload ===");
  const std::vector<int> widths = {12, 12, 14, 12, 14};
  bench::print_row({"payload(B)", "dma(us)", "dma(MB/s)", "pio(us)",
                    "pio(MB/s)"},
                   widths);
  bench::print_rule(widths);
  pci::PciBus bus;
  for (std::size_t bytes :
       {4u, 16u, 64u, 256u, 1024u, 4096u, 16384u, 65536u, 262144u,
        1048576u}) {
    const auto dma = bus.dma_time(bytes);
    const auto pio = bus.programmed_io_time(bytes);
    const double dmbs = static_cast<double>(bytes) / dma.seconds() / 1e6;
    const double pmbs = static_cast<double>(bytes) / pio.seconds() / 1e6;
    bench::print_row({std::to_string(bytes),
                      bench::fmt("%.2f", dma.microseconds()),
                      bench::fmt("%.1f", dmbs),
                      bench::fmt("%.2f", pio.microseconds()),
                      bench::fmt("%.1f", pmbs)},
                     widths);
  }
}

void bus_variant_table() {
  std::puts("\n=== E6b: bus variants (1 MiB DMA) ===");
  const std::vector<int> widths = {18, 12, 14};
  bench::print_row({"bus", "time(ms)", "MB/s"}, widths);
  bench::print_rule(widths);
  struct Variant {
    const char* name;
    pci::PciTiming timing;
  };
  pci::PciTiming v33;
  pci::PciTiming v66;
  v66.clock = sim::Frequency::mhz(66);
  pci::PciTiming w64;
  w64.bus_width_bits = 64;
  pci::PciTiming v66w64;
  v66w64.clock = sim::Frequency::mhz(66);
  v66w64.bus_width_bits = 64;
  for (const Variant& v :
       {Variant{"PCI 32/33", v33}, Variant{"PCI 32/66", v66},
        Variant{"PCI 64/33", w64}, Variant{"PCI 64/66", v66w64}}) {
    pci::PciBus bus(v.timing);
    const std::size_t bytes = 1 << 20;
    const auto t = bus.dma_time(bytes);
    bench::print_row({v.name, bench::fmt("%.2f", t.milliseconds()),
                      bench::fmt("%.1f",
                                 static_cast<double>(bytes) / t.seconds() /
                                     1e6)},
                     widths);
  }
}

}  // namespace

void run_experiment() {
  transfer_table();
  bus_variant_table();
}
