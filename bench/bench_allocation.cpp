// Experiment E5 — Free Frame List allocation strategies and fragmentation
// (paper §2.5: functions occupy "either a set of contiguous frames or a set
// of non-contiguous frames").
//
// Relocatable bitstreams let the mini-OS gather scattered frames; rigid
// contiguous placement suffers external fragmentation and triggers
// avoidable evictions.  This bench churns a mixed working set through the
// card under each strategy and reports evictions, allocation retries, and
// the fragmentation profile.
//
// Expected shape: gather-scattered never retries and evicts least;
// first-fit/best-fit pay extra evictions once the frame map fragments.
#include "bench_util.h"

#include "core/coprocessor.h"
#include "workload/trace.h"

namespace {

using namespace aad;
using algorithms::KernelId;

const std::vector<KernelId> kBank = {
    KernelId::kAes128, KernelId::kDes,    KernelId::kXtea,
    KernelId::kSha1,   KernelId::kSha256, KernelId::kMd5,
    KernelId::kMatMul, KernelId::kFft,    KernelId::kFir16};

struct ChurnResult {
  std::uint64_t evictions;
  std::uint64_t retries;
  std::uint64_t frames_configured;
  double hit_rate;
  double final_fragmentation;
  unsigned final_runs;
};

ChurnResult churn(mcu::AllocationStrategy strategy, std::uint64_t seed,
                  bool defrag_on_pressure = false) {
  core::CoprocessorConfig config;
  config.mcu.allocation = strategy;
  config.mcu.defragment_on_pressure = defrag_on_pressure;
  core::AgileCoprocessor cp(config);
  for (KernelId id : kBank) cp.download(id);

  workload::TraceConfig tc;
  for (KernelId id : kBank) tc.functions.push_back(algorithms::function_id(id));
  tc.length = 400;
  tc.seed = seed;
  const auto trace = workload::make_zipf(tc, 0.9);

  for (const auto& request : trace) {
    const auto& spec =
        algorithms::spec(static_cast<KernelId>(request.function));
    cp.invoke_function(request.function, spec.make_input(1, 1));
  }
  const auto& stats = cp.stats().device;
  return ChurnResult{stats.evictions,
                     stats.allocation_retries,
                     stats.frames_configured,
                     static_cast<double>(stats.config_hits) /
                         static_cast<double>(stats.invocations),
                     cp.mcu().free_frames().external_fragmentation(),
                     cp.mcu().free_frames().free_run_count()};
}

void churn_table() {
  std::puts("\n=== E5: allocation strategy under churn "
            "(zipf(0.9) x 400 requests, 9 kernels / 85 frames demand) ===");
  const std::vector<int> widths = {11, 11, 10, 10, 10, 10, 8};
  bench::print_row({"strategy", "evictions", "retries", "frames",
                    "hit-rate", "frag", "runs"},
                   widths);
  bench::print_rule(widths);
  struct Variant {
    const char* label;
    mcu::AllocationStrategy strategy;
    bool defrag;
  };
  const Variant variants[] = {
      {"gather", mcu::AllocationStrategy::kGatherScattered, false},
      {"first-fit", mcu::AllocationStrategy::kFirstFitContiguous, false},
      {"best-fit", mcu::AllocationStrategy::kBestFitContiguous, false},
      {"ff+defrag", mcu::AllocationStrategy::kFirstFitContiguous, true},
  };
  for (const Variant& v : variants) {
    // Average over 3 seeds for stability.
    ChurnResult total{0, 0, 0, 0, 0, 0};
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const ChurnResult r = churn(v.strategy, seed, v.defrag);
      total.evictions += r.evictions;
      total.retries += r.retries;
      total.frames_configured += r.frames_configured;
      total.hit_rate += r.hit_rate;
      total.final_fragmentation += r.final_fragmentation;
      total.final_runs += r.final_runs;
    }
    bench::print_row(
        {v.label, bench::fmt_u(total.evictions / 3),
         bench::fmt_u(total.retries / 3),
         bench::fmt_u(total.frames_configured / 3),
         bench::fmt("%.1f%%", total.hit_rate / 3 * 100),
         bench::fmt("%.2f", total.final_fragmentation / 3),
         bench::fmt("%.1f", total.final_runs / 3.0)},
        widths);
  }
}

void fragmentation_microbench() {
  std::puts("\n=== E5b: synthetic fragmentation — contiguous failure where "
            "scattered succeeds ===");
  const std::vector<int> widths = {26, 12, 12, 12};
  bench::print_row({"free pattern", "want", "contiguous", "gather"}, widths);
  bench::print_rule(widths);

  struct Case {
    const char* label;
    std::vector<bool> occupied;  // length 16 pattern, tiled to 48
    unsigned want;
  };
  const std::vector<Case> cases = {
      {"alternating (24 free)", {true, false}, 2},
      {"pairs (24 free)", {true, true, false, false}, 3},
      {"sparse holes (12 free)", {true, true, true, false}, 4},
  };
  // Build the pattern by allocating the whole device, then releasing the
  // frames the pattern leaves free.
  const auto make_list = [](const Case& c) {
    mcu::FreeFrameList ffl(48);
    (void)ffl.allocate(48, mcu::AllocationStrategy::kGatherScattered);
    std::vector<fabric::FrameIndex> to_free;
    for (unsigned f = 0; f < 48; ++f)
      if (!c.occupied[f % c.occupied.size()]) to_free.push_back(f);
    ffl.release(to_free);
    return ffl;
  };
  for (const auto& c : cases) {
    auto contiguous_list = make_list(c);
    auto gather_list = make_list(c);
    const bool contiguous =
        contiguous_list
            .allocate(c.want, mcu::AllocationStrategy::kFirstFitContiguous)
            .has_value();
    const bool gather =
        gather_list
            .allocate(c.want, mcu::AllocationStrategy::kGatherScattered)
            .has_value();
    bench::print_row({c.label, std::to_string(c.want),
                      contiguous ? "ok" : "FAIL", gather ? "ok" : "FAIL"},
                     widths);
  }
}

}  // namespace

void run_experiment() {
  churn_table();
  fragmentation_microbench();
}
