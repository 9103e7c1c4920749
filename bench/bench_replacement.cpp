// Experiment E3 — Frame Replacement Policy quality (paper §2.5).
//
// The paper mandates LRU via the Frame Replacement Table's timestamps.
// This bench runs the full co-processor (streaming reconfiguration, real
// frame allocation) over four trace shapes and five policies and reports
// config-hit rate, evictions, frames configured, and mean invoke latency.
//
// Expected shape: Belady >= LRU >= FIFO/Random on skewed (zipf, markov)
// traces; round-robin over a too-big working set is LRU's worst case; all
// policies converge on uniform traces.
#include "bench_util.h"

#include "core/coprocessor.h"
#include "workload/trace.h"

namespace {

using namespace aad;
using algorithms::KernelId;

// Behavioral working set: 9 kernels, 85 frames total on a 48-frame device.
const std::vector<KernelId> kBank = {
    KernelId::kAes128, KernelId::kDes,    KernelId::kXtea,
    KernelId::kSha1,   KernelId::kSha256, KernelId::kMd5,
    KernelId::kMatMul, KernelId::kFft,    KernelId::kFir16};

struct RunResult {
  double hit_rate;
  std::uint64_t evictions;
  std::uint64_t frames;
  double mean_latency_us;
};

RunResult run_trace(mcu::PolicyKind policy, const workload::Trace& trace) {
  core::CoprocessorConfig config;
  config.mcu.policy = policy;
  core::AgileCoprocessor cp(config);
  for (KernelId id : kBank) cp.download(id);
  if (policy == mcu::PolicyKind::kBelady)
    cp.mcu().policy().set_future(workload::function_sequence(trace));

  double total_us = 0;
  for (const auto& request : trace) {
    const auto& spec = algorithms::spec(
        static_cast<KernelId>(request.function));
    const Bytes input = spec.make_input(request.payload_blocks, 1);
    total_us += cp.invoke_function(request.function, input)
                    .latency().microseconds();
  }
  const auto& stats = cp.stats().device;
  return RunResult{
      static_cast<double>(stats.config_hits) /
          static_cast<double>(stats.invocations),
      stats.evictions, stats.frames_configured,
      total_us / static_cast<double>(trace.size())};
}

workload::TraceConfig bank_config(std::size_t length, std::uint64_t seed) {
  workload::TraceConfig config;
  for (KernelId id : kBank)
    config.functions.push_back(algorithms::function_id(id));
  config.length = length;
  config.seed = seed;
  return config;
}

void run_experiment_tables() {
  struct Shape {
    const char* name;
    workload::Trace trace;
  };
  const std::size_t n = 400;
  std::vector<Shape> shapes;
  shapes.push_back({"zipf(1.2)", workload::make_zipf(bank_config(n, 1), 1.2)});
  shapes.push_back(
      {"markov(.8)", workload::make_markov(bank_config(n, 2), 0.8)});
  shapes.push_back({"round-robin", workload::make_round_robin(bank_config(n, 3))});
  shapes.push_back({"uniform", workload::make_uniform(bank_config(n, 4))});

  for (const auto& shape : shapes) {
    std::printf("\n=== E3: policy comparison on %s trace (%zu requests, "
                "9 kernels / 85 frames on a 48-frame device) ===\n",
                shape.name, shape.trace.size());
    const std::vector<int> widths = {10, 11, 11, 10, 16};
    bench::print_row(
        {"policy", "hit-rate", "evictions", "frames", "mean-lat(us)"},
        widths);
    bench::print_rule(widths);
    for (const auto kind :
         {mcu::PolicyKind::kBelady, mcu::PolicyKind::kLru,
          mcu::PolicyKind::kLfu, mcu::PolicyKind::kFifo,
          mcu::PolicyKind::kRandom}) {
      const RunResult r = run_trace(kind, shape.trace);
      bench::print_row({to_string(kind),
                        bench::fmt("%.1f%%", r.hit_rate * 100),
                        bench::fmt_u(r.evictions), bench::fmt_u(r.frames),
                        bench::fmt("%.1f", r.mean_latency_us)},
                       widths);
    }
  }
}

}  // namespace

void run_experiment() { run_experiment_tables(); }
