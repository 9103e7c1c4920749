// Experiment F1 — the end-to-end proof of concept (paper Figure 1 and §3).
//
// Regenerates the system-level demonstration: every kernel in the bank is
// provisioned over PCI, executed on demand (cold: ROM -> window decompress
// -> partial reconfiguration -> execute -> collect; warm: execute only),
// and the latency is attributed to pipeline stages.  This is the table a
// DATE'05 camera-ready with an evaluation section would have shown.
#include "bench_util.h"

#include "core/coprocessor.h"
#include "workload/trace.h"

namespace {

using namespace aad;
using algorithms::KernelId;

void per_kernel_table() {
  std::puts("\n=== F1: on-demand execution, every kernel in the bank ===");
  std::puts("(cold = function absent, includes streaming partial "
            "reconfiguration; warm = resident)");
  const std::vector<int> widths = {12, 11, 8, 10, 11, 11, 11, 9};
  bench::print_row({"kernel", "kind", "frames", "input(B)", "cold(us)",
                    "warm(us)", "reconfig", "cycles"},
                   widths);
  bench::print_rule(widths);

  for (const auto& spec : algorithms::catalog()) {
    core::AgileCoprocessor cp;   // fresh card per kernel: clean cold number
    cp.download(spec.id);
    const Bytes input = spec.make_input(4, 11);
    const auto cold = cp.invoke(spec.id, input);
    const auto warm = cp.invoke(spec.id, input);
    bench::print_row(
        {spec.name, to_string(spec.kind), std::to_string(spec.nominal_frames),
         std::to_string(input.size()),
         bench::fmt("%.1f", cold.latency.microseconds()),
         bench::fmt("%.1f", warm.latency.microseconds()),
         bench::fmt("%.1f", cold.device.load.reconfig_time.microseconds()),
         std::to_string(warm.device.exec_cycles)},
        widths);
  }
}

void stage_breakdown() {
  std::puts("\n=== F1b: where a cold AES-128 invocation spends its time ===");
  core::AgileCoprocessor cp;
  cp.download(KernelId::kAes128);
  const auto& spec = algorithms::spec(KernelId::kAes128);
  const Bytes input = spec.make_input(16, 3);
  const auto cold = cp.invoke(KernelId::kAes128, input);
  const mcu::InvokeResult& device = cold.device;
  const std::pair<const char*, sim::SimTime> stages[] = {
      {"host-pci", cold.pci_time},
      {"rom", device.load_stages.rom},
      {"decompress", device.load_stages.decompress},
      {"configure", device.load_stages.configure},
      {"data-in/out", device.io_time},
      {"execute", device.exec_time},
      {"firmware", device.firmware_time + device.load_stages.firmware},
  };
  const std::vector<int> widths = {14, 12, 10};
  bench::print_row({"stage", "time(us)", "share"}, widths);
  bench::print_rule(widths);
  for (const auto& [stage, time] : stages) {
    bench::print_row(
        {stage, bench::fmt("%.1f", time.microseconds()),
         bench::fmt("%.1f%%", 100.0 * time.microseconds() /
                                  cold.latency.microseconds())},
        widths);
  }
  std::printf("end-to-end: %.1f us (stages overlap in the configuration "
              "pipeline, so shares can exceed 100%%)\n",
              cold.latency.microseconds());
}

void mixed_service_run() {
  std::puts("\n=== F1c: 200-request mixed service (zipf 1.0, all kernels) ===");
  core::AgileCoprocessor cp;
  cp.download_all();
  workload::TraceConfig tc;
  for (const auto& spec : algorithms::catalog())
    tc.functions.push_back(algorithms::function_id(spec.id));
  tc.length = 200;
  tc.seed = 31;
  const auto trace = workload::make_zipf(tc, 1.0);
  double total_us = 0;
  std::size_t bytes_moved = 0;
  for (const auto& request : trace) {
    const auto& spec =
        algorithms::spec(static_cast<KernelId>(request.function));
    const Bytes input = spec.make_input(1, 1);
    const auto out = cp.invoke_function(request.function, input);
    total_us += out.latency.microseconds();
    bytes_moved += input.size() + out.output.size();
  }
  const auto stats = cp.stats();
  std::printf("  requests: %zu   mean latency: %.1f us   simulated time: "
              "%.2f ms\n",
              trace.size(), total_us / static_cast<double>(trace.size()),
              cp.now().milliseconds());
  std::printf("  config hits: %llu/%llu (%.1f%%)   evictions: %llu   frames "
              "configured: %llu\n",
              static_cast<unsigned long long>(stats.device.config_hits),
              static_cast<unsigned long long>(stats.device.invocations),
              100.0 * static_cast<double>(stats.device.config_hits) /
                  static_cast<double>(stats.device.invocations),
              static_cast<unsigned long long>(stats.device.evictions),
              static_cast<unsigned long long>(stats.device.frames_configured));
  std::printf("  PCI payload: %zu B   bus busy: %.2f ms\n", bytes_moved,
              stats.bus.bus_time.milliseconds());
}

}  // namespace

void run_experiment() {
  per_kernel_table();
  stage_breakdown();
  mixed_service_run();
}
