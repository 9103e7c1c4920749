// Experiment E4 — co-processor vs host-only speedup and crossover (the
// paper's §1 motivation: "reduce the computational overload on the host
// processors").
//
// For each behavioral kernel, sweeps input size and reports host time,
// warm co-processor time (function resident) and cold time (reconfiguration
// included).  Expected shape: the card loses at small payloads (PCI +
// reconfig overhead dominates), wins at scale; the crossover input size per
// kernel is printed.  Netlist demo kernels are reported separately — they
// never win (single-word combinational ops are exactly what should stay on
// the host), which is the honest flip side of the paper's pitch.
#include "bench_util.h"

#include "core/coprocessor.h"

namespace {

using namespace aad;
using algorithms::KernelId;

void sweep_kernel(KernelId id, const std::vector<std::size_t>& blocks) {
  const auto& spec = algorithms::spec(id);
  std::printf("\n--- %s ---\n", spec.name.c_str());
  const std::vector<int> widths = {11, 12, 12, 12, 11, 11};
  bench::print_row({"input(B)", "host(us)", "warm(us)", "cold(us)",
                    "spd-warm", "spd-cold"},
                   widths);
  bench::print_rule(widths);

  core::AgileCoprocessor cp;
  cp.download(id);
  bool crossover_reported = false;
  for (std::size_t b : blocks) {
    const Bytes input = spec.make_input(b, 7);
    // Cold: evict first if resident.
    if (cp.mcu().is_resident(algorithms::function_id(id)))
      cp.evict(id);
    const auto cold = cp.invoke(id, input);
    const auto warm = cp.invoke(id, input);
    const auto host = cp.run_on_host(id, input);

    const double sw = host.latency.microseconds();
    const double w = warm.latency().microseconds();
    const double c = cold.latency().microseconds();
    bench::print_row(
        {std::to_string(input.size()), bench::fmt("%.1f", sw),
         bench::fmt("%.1f", w), bench::fmt("%.1f", c),
         bench::fmt("%.2fx", sw / w), bench::fmt("%.2fx", sw / c)},
        widths);
    if (!crossover_reported && sw > w) {
      crossover_reported = true;
    }
  }
}

void run_behavioral_sweeps() {
  std::puts("\n=== E4: co-processor vs host-only execution ===");
  std::puts("(host model: ~3 GHz 2005-era desktop; card: 100 MHz fabric, "
            "PCI 32/33)");
  sweep_kernel(KernelId::kAes128, {1, 4, 16, 64, 256, 1024});
  sweep_kernel(KernelId::kDes, {1, 4, 16, 64, 256, 1024});
  sweep_kernel(KernelId::kSha256, {1, 4, 16, 64, 256});
  sweep_kernel(KernelId::kMatMul, {4, 8, 16, 32, 64});
  sweep_kernel(KernelId::kFft, {4, 6, 8, 10, 12});  // log2 points
  sweep_kernel(KernelId::kFir16, {1, 4, 16, 64, 256});
  sweep_kernel(KernelId::kModExp, {1, 2, 4});  // 256/512/1024-bit operands
}

void run_netlist_reality_check() {
  std::puts(
      "\n=== E4b: netlist demo kernels (expected to LOSE — per-call bus "
      "overhead dwarfs one combinational evaluation) ===");
  const std::vector<int> widths = {12, 12, 12, 12};
  bench::print_row({"kernel", "host(us)", "warm(us)", "ratio"}, widths);
  bench::print_rule(widths);
  for (KernelId id : {KernelId::kAdder32, KernelId::kParity32,
                      KernelId::kCrc32}) {
    const auto& spec = algorithms::spec(id);
    core::AgileCoprocessor cp;
    cp.download(id);
    const Bytes input = spec.make_input(64, 3);
    cp.invoke(id, input);  // warm up
    const auto warm = cp.invoke(id, input);
    const auto host = cp.run_on_host(id, input);
    bench::print_row(
        {spec.name, bench::fmt("%.2f", host.latency.microseconds()),
         bench::fmt("%.2f", warm.latency().microseconds()),
         bench::fmt("%.3fx", host.latency.microseconds() /
                                 warm.latency().microseconds())},
        widths);
  }
}

}  // namespace

void run_experiment() {
  run_behavioral_sweeps();
  run_netlist_reality_check();
}
