// Experiment E1 — partial vs full reconfiguration latency.
//
// Paper hook (§2.4): "partial reconfiguration of the FPGA facilitates the
// swap-in and swap-out of functions, from the FPGA, on-demand."  The claim
// only pays off if configuring k frames costs ~k/48 of a full-device load;
// this bench sweeps function footprints and reports both, plus the
// decompression pipeline's contribution per codec.
//
// Expected shape: partial time linear in frames; speedup over full ~
// frame_count/frames; compressed streams cut the ROM-bound stage.
#include "bench_util.h"

#include "bitstream/synth.h"
#include "core/coprocessor.h"

namespace {

using namespace aad;

void sweep_partial_vs_full() {
  std::puts("\n=== E1: partial vs full reconfiguration latency ===");
  const std::vector<int> widths = {8, 14, 14, 12, 14};
  bench::print_row({"frames", "partial(us)", "full(us)", "speedup",
                    "bytes(part)"},
                   widths);
  bench::print_rule(widths);

  fabric::Fabric fabric;
  const auto& geometry = fabric.geometry();
  const auto full_time = fabric.port().full_time(geometry);

  for (unsigned frames : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 48u}) {
    const auto partial = fabric.port().frame_time(geometry) *
                         static_cast<std::int64_t>(frames);
    bench::print_row(
        {std::to_string(frames),
         bench::fmt("%.1f", partial.microseconds()),
         bench::fmt("%.1f", full_time.microseconds()),
         bench::fmt("%.1fx", full_time.microseconds() /
                                 partial.microseconds()),
         std::to_string(static_cast<std::size_t>(frames) *
                        geometry.frame_bytes())},
        widths);
  }
}

void end_to_end_reconfig_by_codec() {
  std::puts(
      "\n=== E1b: end-to-end configuration time through the streaming "
      "pipeline (12-frame function) ===");
  const std::vector<int> widths = {14, 12, 12, 12, 12, 12};
  bench::print_row({"codec", "total(us)", "rom(us)", "dec(us)", "cfg(us)",
                    "rom bytes"},
                   widths);
  bench::print_rule(widths);

  // `--codec` narrows the sweep to one codec ("auto" lets the MCU pick at
  // download time); a bare run regenerates the full table.
  std::vector<compress::CodecId> codecs = compress::all_codec_ids();
  if (const auto pick = bench::codec_flag()) codecs = {*pick};
  for (const auto codec : codecs) {
    // Fresh card per codec so ROM layout is identical.
    core::AgileCoprocessor cp;
    const auto record = cp.download(algorithms::KernelId::kAes128, codec);
    mcu::ConfigEngine engine;
    std::vector<fabric::FrameIndex> targets;
    for (unsigned i = 0; i < record.frames; ++i) targets.push_back(i);
    fabric::Fabric scratch;
    const auto result = engine.configure(
        cp.mcu().rom(), record, targets, scratch, memory::RomTiming{},
        sim::SimTime::zero());
    bench::print_row(
        {to_string(record.codec),
         bench::fmt("%.1f", result.total.microseconds()),
         bench::fmt("%.1f", result.rom_bound.microseconds()),
         bench::fmt("%.1f", result.decompress_bound.microseconds()),
         bench::fmt("%.1f", result.config_bound.microseconds()),
         std::to_string(result.compressed_bytes)},
        widths);
  }
}

void difference_based_ablation() {
  std::puts(
      "\n=== E1c: difference-based reconfiguration (paper ref [4], "
      "XAPP290) — reloading a 12-frame function into its old frames ===");
  const std::vector<int> widths = {22, 14, 14, 14};
  bench::print_row({"flow", "first(us)", "reload(us)", "port writes"},
                   widths);
  bench::print_rule(widths);

  for (const bool diff : {false, true}) {
    core::CoprocessorConfig config;
    config.mcu.engine.difference_based = diff;
    core::AgileCoprocessor cp(config);
    cp.download(algorithms::KernelId::kAes128);
    const auto fid = algorithms::function_id(algorithms::KernelId::kAes128);
    const auto first = cp.mcu().ensure_loaded(fid);
    cp.mcu().evict(fid);
    const auto writes_before = cp.fabric().memory().frame_writes();
    const auto reload = cp.mcu().ensure_loaded(fid);
    bench::print_row(
        {diff ? "difference-based" : "module-based (write)",
         bench::fmt("%.1f", first.reconfig_time.microseconds()),
         bench::fmt("%.1f", reload.reconfig_time.microseconds()),
         std::to_string(cp.fabric().memory().frame_writes() -
                        writes_before)},
        widths);
  }
  std::puts("(difference-based pays only ROM + decompress + compare on a "
            "re-load; content that differs is still written — see tests)");
}

}  // namespace

void run_experiment() {
  sweep_partial_vs_full();
  end_to_end_reconfig_by_codec();
  difference_based_ablation();
}
