#include "mcu/config_engine.h"

#include <algorithm>

#include "common/crc32.h"

namespace aad::mcu {

std::uint64_t window_content_hash(ByteSpan window) noexcept {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  for (const Byte b : window) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 1099511628211ull;
  }
  return h == 0 ? 1 : h;  // 0 is the frame table's "unknown" sentinel
}

ConfigureResult ConfigEngine::configure(
    const memory::RomImage& rom, const memory::RomRecord& record,
    std::span<const fabric::FrameIndex> targets, fabric::Fabric& fabric,
    const memory::RomTiming& rom_timing, sim::SimTime start,
    std::uint32_t expected_raw_crc) {
  const auto& geometry = fabric.geometry();
  AAD_REQUIRE(record.frames == targets.size(),
              "target frame count does not match the record footprint");
  AAD_REQUIRE(record.clb_rows == geometry.clb_rows,
              "bitstream was built for a different device geometry");
  const std::size_t frame_bytes = geometry.frame_bytes();
  AAD_REQUIRE(record.raw_size ==
                  frame_bytes * static_cast<std::size_t>(record.frames),
              "record raw size inconsistent with footprint");

  const ByteSpan compressed = rom.payload(record);
  if (Crc32::compute(compressed) != record.payload_crc)
    AAD_FAIL(ErrorCode::kCorruptData,
             "compressed payload CRC mismatch (ROM corruption)");

  // The header is checked against the record before anything is
  // allocated: a corrupt header never picks the allocation size.
  if (compress::raw_size(compressed) != record.raw_size)
    AAD_FAIL(ErrorCode::kCorruptData,
             "compressed stream raw size disagrees with record");

  // Decode-before-program: decode the WHOLE image and verify it up front.
  // A truncated, overlong or CRC-divergent stream is rejected here — before
  // any frame is programmed or any tracker entry updated — so a corrupted
  // bitstream can never leave garbage frames on the fabric.  The timing
  // recurrence below still models the real module streaming window by
  // window; only the failure atomicity differs.
  Bytes raw(record.raw_size);
  compress::make_codec(record.codec, frame_bytes)
      ->decompress_into(compressed, raw);
  if (expected_raw_crc != 0 && Crc32::compute(raw) != expected_raw_crc)
    AAD_FAIL(ErrorCode::kCorruptData, "decoded function image CRC mismatch");

  // Per-window stage durations.  Compressed bytes arrive from ROM roughly
  // evenly per window (the decoder consumes as it produces); the data path
  // below is exact, only the ROM-stage apportioning is averaged.
  const std::size_t windows = targets.size();
  const std::size_t rom_bytes_per_window =
      windows == 0 ? 0 : (compressed.size() + windows - 1) / windows;
  const sim::SimTime rom_t = rom_timing.read_time(rom_bytes_per_window);
  const double cpb = compress::decompress_cycles_per_byte(record.codec);
  const sim::SimTime dec_t = config_.engine_clock.cycles(
      static_cast<std::int64_t>(cpb * static_cast<double>(frame_bytes)));
  const sim::SimTime cfg_t = fabric.port().frame_time(geometry);
  const sim::SimTime check_t = config_.engine_clock.cycles(
      static_cast<std::int64_t>(config_.delta_check_cycles));

  const bool delta = config_.delta_reconfig;
  if (delta && frame_hashes_.size() < geometry.frame_count)
    frame_hashes_.resize(geometry.frame_count, 0);

  ConfigureResult result;
  result.compressed_bytes = compressed.size();
  result.raw_bytes = record.raw_size;

  // Pipeline recurrence over the three stages.
  sim::SimTime rom_done = start;
  sim::SimTime dec_done = start;
  sim::SimTime cfg_done = start;

  for (std::size_t w = 0; w < windows; ++w) {
    const ByteSpan window(raw.data() + w * frame_bytes, frame_bytes);
    const auto words = bitstream::bytes_to_words(window);

    // Delta flow: the frame table says this frame already holds exactly
    // this window — verified by readback compare (hash-collision
    // insurance).  The window's compressed span is never fetched or
    // decoded; only the table lookup costs anything.
    bool delta_skip = false;
    std::uint64_t wh = 0;
    if (delta) {
      wh = window_content_hash(window);
      if (frame_hashes_[targets[w]] == wh) {
        const auto current = fabric.memory().read_frame(targets[w]);
        delta_skip = std::equal(words.begin(), words.end(), current.begin());
      }
    }
    // Difference-based flow (XAPP290): readback compare skips only the
    // port write — the window still streams and decodes.
    bool skip = delta_skip;
    if (!skip && config_.difference_based) {
      const auto current = fabric.memory().read_frame(targets[w]);
      skip = std::equal(words.begin(), words.end(), current.begin());
    }
    sim::SimTime this_rom_t = rom_t;
    sim::SimTime this_dec_t = dec_t;
    sim::SimTime this_cfg_t = cfg_t;
    if (delta_skip) {
      ++result.frames_skipped;
      ++result.frames_skipped_delta;
      this_rom_t = sim::SimTime::zero();
      this_dec_t = check_t;
      this_cfg_t = sim::SimTime::zero();
    } else if (skip) {
      ++result.frames_skipped;
      this_cfg_t = config_.engine_clock.cycles(static_cast<std::int64_t>(
          config_.compare_cycles_per_byte * static_cast<double>(frame_bytes)));
    } else {
      fabric.configure_frame(targets[w], words);
    }
    if (delta) frame_hashes_[targets[w]] = wh;

    // Timing: stage chaining.
    rom_done = rom_done + this_rom_t;
    dec_done = std::max(rom_done, dec_done) + this_dec_t;
    cfg_done = std::max(dec_done, cfg_done) + this_cfg_t;

    result.rom_bound += this_rom_t;
    result.decompress_bound += this_dec_t;
    result.config_bound += this_cfg_t;
  }

  result.total = cfg_done - start;
  result.frames_written = windows - result.frames_skipped;
  result.bytes_streamed =
      std::min(compressed.size(),
               (windows - result.frames_skipped_delta) * rom_bytes_per_window);
  return result;
}

sim::SimTime ConfigEngine::estimate_time(std::size_t compressed_bytes,
                                         unsigned frames,
                                         compress::CodecId codec,
                                         std::size_t frame_bytes,
                                         sim::SimTime frame_time,
                                         const memory::RomTiming& rom_timing,
                                         const std::vector<bool>& skip) const {
  const std::size_t windows = frames;
  if (windows == 0) return sim::SimTime::zero();
  const std::size_t rom_bytes_per_window =
      (compressed_bytes + windows - 1) / windows;
  const sim::SimTime rom_t = rom_timing.read_time(rom_bytes_per_window);
  const double cpb = compress::decompress_cycles_per_byte(codec);
  const sim::SimTime dec_t = config_.engine_clock.cycles(
      static_cast<std::int64_t>(cpb * static_cast<double>(frame_bytes)));
  const sim::SimTime check_t = config_.engine_clock.cycles(
      static_cast<std::int64_t>(config_.delta_check_cycles));

  sim::SimTime rom_done = sim::SimTime::zero();
  sim::SimTime dec_done = sim::SimTime::zero();
  sim::SimTime cfg_done = sim::SimTime::zero();
  for (std::size_t w = 0; w < windows; ++w) {
    const bool s = w < skip.size() && skip[w];
    rom_done = rom_done + (s ? sim::SimTime::zero() : rom_t);
    dec_done = std::max(rom_done, dec_done) + (s ? check_t : dec_t);
    cfg_done = std::max(dec_done, cfg_done) + (s ? sim::SimTime::zero()
                                                 : frame_time);
  }
  return cfg_done;
}

}  // namespace aad::mcu
