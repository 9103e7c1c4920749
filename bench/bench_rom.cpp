// Experiment E7 — ROM capacity and the two-ended layout (paper §2.2:
// bit-streams from one end, record table from the other).
//
// Reports how many copies of the full kernel bank fit in a given ROM per
// codec (compression directly buys algorithm-bank capacity — the reason the
// paper stores compressed streams), plus record-table overhead and
// store/lookup costs.
#include "bench_util.h"

#include "core/coprocessor.h"
#include "memory/rom.h"

namespace {

using namespace aad;

void capacity_table() {
  std::puts("\n=== E7: functions that fit a 256 KiB ROM per codec ===");
  const std::vector<int> widths = {14, 12, 14, 14};
  bench::print_row({"codec", "functions", "data bytes", "record bytes"},
                   widths);
  bench::print_rule(widths);

  const fabric::FrameGeometry geometry;
  for (const auto codec : compress::all_codec_ids()) {
    memory::RomImage rom(256 * 1024);
    const auto impl = compress::make_codec(codec, geometry.frame_bytes());
    std::uint32_t stored = 0;
    try {
      // Keep cloning the kernel bank (fresh ids) until the ROM collides.
      for (std::uint32_t copy = 0;; ++copy) {
        for (const auto& spec : algorithms::catalog()) {
          const auto bs = spec.make_bitstream(geometry);
          const Bytes raw = bitstream::pack_frame_payloads(bs);
          memory::RomRecord rec;
          rec.function_id = copy * 1000 + algorithms::function_id(spec.id);
          rec.name = spec.name;
          rec.kind = spec.kind;
          rec.codec = codec;
          rec.raw_size = static_cast<std::uint32_t>(raw.size());
          rec.frames = static_cast<std::uint16_t>(bs.frame_count());
          rec.clb_rows = static_cast<std::uint16_t>(geometry.clb_rows);
          rom.store(rec, impl->compress(raw));
          ++stored;
        }
      }
    } catch (const Error&) {
      // ROM full — the expected terminal condition.
    }
    bench::print_row({to_string(codec), std::to_string(stored),
                      std::to_string(rom.data_bytes()),
                      std::to_string(rom.record_bytes())},
                     widths);
  }
}

void provisioning_time_table() {
  std::puts("\n=== E7b: provisioning (download) cost of the full bank ===");
  const std::vector<int> widths = {14, 14, 14, 14};
  bench::print_row({"codec", "rom bytes", "pci(ms)", "total(ms)"}, widths);
  bench::print_rule(widths);
  // `--codec` narrows the table to one codec ("auto" = per-function pick).
  std::vector<compress::CodecId> codecs = {compress::CodecId::kNull,
                                           compress::CodecId::kLzss,
                                           compress::CodecId::kFrameDelta};
  if (const auto pick = bench::codec_flag()) codecs = {*pick};
  for (const auto codec : codecs) {
    core::AgileCoprocessor cp;
    const auto t0 = cp.now();
    cp.download_all(codec);
    const auto elapsed = cp.now() - t0;
    bench::print_row(
        {to_string(codec), std::to_string(cp.mcu().rom().data_bytes()),
         bench::fmt("%.2f", cp.stats().bus.bus_time.milliseconds()),
         bench::fmt("%.2f", elapsed.milliseconds())},
        widths);
  }
}

}  // namespace

void run_experiment() {
  capacity_table();
  provisioning_time_table();
}
