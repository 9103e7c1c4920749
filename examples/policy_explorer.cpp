// Policy explorer: a small CLI for experimenting with the mini-OS knobs —
// replacement policy, allocation strategy, trace shape and length.
//
// Usage:
//   policy_explorer [policy] [trace] [length]
//     policy: lru | fifo | lfu | random | belady | all   (default all)
//     trace:  zipf | uniform | rr | markov | phased       (default zipf)
//     length: request count                               (default 300)
//
// Example:
//   ./build/examples/policy_explorer all markov 500
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/coprocessor.h"
#include "workload/trace.h"

namespace {

using namespace aad;
using algorithms::KernelId;

const std::vector<KernelId> kBank = {
    KernelId::kAes128, KernelId::kDes,    KernelId::kXtea,
    KernelId::kSha1,   KernelId::kSha256, KernelId::kMd5,
    KernelId::kMatMul, KernelId::kFft,    KernelId::kFir16};

workload::Trace build_trace(const std::string& shape, std::size_t length) {
  workload::TraceConfig config;
  for (KernelId id : kBank)
    config.functions.push_back(algorithms::function_id(id));
  config.length = length;
  config.seed = 17;
  if (shape == "uniform") return workload::make_uniform(config);
  if (shape == "rr") return workload::make_round_robin(config);
  if (shape == "markov") return workload::make_markov(config, 0.8);
  if (shape == "phased") return workload::make_phased(config, 3, 40);
  return workload::make_zipf(config, 1.2);
}

void run_policy(mcu::PolicyKind kind, const workload::Trace& trace) {
  core::CoprocessorConfig config;
  config.mcu.policy = kind;
  core::AgileCoprocessor card(config);
  for (KernelId id : kBank) card.download(id);
  if (kind == mcu::PolicyKind::kBelady)
    card.mcu().set_future(workload::function_sequence(trace));

  double total_us = 0;
  for (const auto& request : trace) {
    const auto& spec =
        algorithms::spec(static_cast<KernelId>(request.function));
    total_us +=
        card.invoke_function(request.function, spec.make_input(1, 1))
            .latency().microseconds();
  }
  const auto& stats = card.stats().device;
  std::printf("%-8s hit-rate %5.1f%%   evictions %4llu   frames %5llu   "
              "mean latency %7.1f us\n",
              to_string(kind),
              100.0 * static_cast<double>(stats.config_hits) /
                  static_cast<double>(stats.invocations),
              static_cast<unsigned long long>(stats.evictions),
              static_cast<unsigned long long>(stats.frames_configured),
              total_us / static_cast<double>(trace.size()));
}

}  // namespace

int main(int argc, char** argv) {
  const std::string policy = argc > 1 ? argv[1] : "all";
  const std::string shape = argc > 2 ? argv[2] : "zipf";
  const std::size_t length =
      argc > 3 ? static_cast<std::size_t>(std::atoi(argv[3])) : 300;

  const auto trace = build_trace(shape, length);
  std::printf("trace: %s, %zu requests over %zu kernels "
              "(85 frames of demand on a 48-frame device)\n\n",
              shape.c_str(), trace.size(), kBank.size());

  const std::vector<std::pair<std::string, mcu::PolicyKind>> kinds = {
      {"belady", mcu::PolicyKind::kBelady}, {"lru", mcu::PolicyKind::kLru},
      {"lfu", mcu::PolicyKind::kLfu},       {"fifo", mcu::PolicyKind::kFifo},
      {"random", mcu::PolicyKind::kRandom}};
  bool matched = false;
  for (const auto& [name, kind] : kinds) {
    if (policy == "all" || policy == name) {
      run_policy(kind, trace);
      matched = true;
    }
  }
  if (!matched) {
    std::fprintf(stderr,
                 "unknown policy '%s' (use lru|fifo|lfu|random|belady|all)\n",
                 policy.c_str());
    return 1;
  }
  return 0;
}
