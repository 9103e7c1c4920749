// Experiment E2 — bitstream compression (paper §2.2/§2.3 machinery and §4's
// open problem: "compression that can exploit the symmetry in the CLB
// architectures of FPGAs").
//
// For every kernel's real configuration stream and every codec: compressed
// ratio, modeled window-by-window decompression throughput, and the content
// statistics that explain the result.  Expected shape: frame-delta (the
// symmetry-exploiting codec) and golomb lead on sparse/regular streams;
// huffman/lzss are the generic mid-field; ratios on random-looking payloads
// approach 1.
#include "bench_util.h"

#include "bitstream/stats.h"
#include "compress/codec.h"
#include "core/coprocessor.h"

namespace {

using namespace aad;

void ratio_table() {
  std::puts("\n=== E2: compression ratio per kernel bitstream x codec ===");
  std::puts("(compressed bytes / raw bytes; lower is better)");
  const std::vector<int> widths = {12, 9, 8, 8, 8, 9, 8, 9, 12};
  bench::print_row({"kernel", "raw(B)", "rle", "lzss", "huff", "golomb",
                    "fdelta", "dgolomb", "zero-words"},
                   widths);
  bench::print_rule(widths);

  const fabric::FrameGeometry geometry;
  double sums[6] = {0, 0, 0, 0, 0, 0};
  int rows = 0;
  for (const auto& spec : algorithms::catalog()) {
    const auto bs = spec.make_bitstream(geometry);
    const Bytes raw = bitstream::pack_frame_payloads(bs);
    const auto stats = bitstream::analyze(bs);
    std::vector<std::string> cells = {spec.name, std::to_string(raw.size())};
    int i = 0;
    for (const auto codec :
         {compress::CodecId::kRle, compress::CodecId::kLzss,
          compress::CodecId::kHuffman, compress::CodecId::kGolomb,
          compress::CodecId::kFrameDelta, compress::CodecId::kDeltaGolomb}) {
      const auto impl = compress::make_codec(codec, geometry.frame_bytes());
      const double ratio = static_cast<double>(impl->compress(raw).size()) /
                           static_cast<double>(raw.size());
      sums[i++] += ratio;
      cells.push_back(bench::fmt("%.3f", ratio));
    }
    cells.push_back(bench::fmt("%.1f%%", stats.zero_word_fraction * 100));
    bench::print_row(cells, widths);
    ++rows;
  }
  bench::print_rule(widths);
  std::vector<std::string> mean = {"MEAN", ""};
  for (double s : sums) mean.push_back(bench::fmt("%.3f", s / rows));
  mean.push_back("");
  bench::print_row(mean, widths);
}

void throughput_table() {
  std::puts(
      "\n=== E2b: modeled window decompression throughput "
      "(configuration-module engine @ 66 MHz) ===");
  const std::vector<int> widths = {14, 16, 18};
  bench::print_row({"codec", "cycles/byte", "throughput(MB/s)"}, widths);
  bench::print_rule(widths);
  for (const auto codec : compress::all_codec_ids()) {
    const double cpb = compress::decompress_cycles_per_byte(codec);
    const double mbps = 66e6 / cpb / 1e6;
    bench::print_row({to_string(codec), bench::fmt("%.2f", cpb),
                      bench::fmt("%.1f", mbps)},
                     widths);
  }
  std::puts(
      "note: SelectMAP8 @ 50 MHz consumes 50 MB/s, so every codec except "
      "huffman keeps the config port saturated (pipeline overlap, E1b).");
}

}  // namespace

void run_experiment() {
  ratio_table();
  throughput_table();
}
