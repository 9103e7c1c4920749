// The configuration module (paper §2.3): "decompresses the compressed
// bit-stream window by window and passes the configuration bit-stream to
// the FPGA to configure it."
//
// One window = one frame.  The engine checks the CRC of the record's
// compressed bytes in ROM, decodes the whole image with the record's codec,
// checks the image CRC, and only then writes each window into the fabric
// through the configuration port.
//
// Timing is a three-stage pipeline (ROM read | decompress | config port):
// window w's stage can start only when the same stage finished window w-1
// and the previous stage finished window w.  This is how the real module
// overlaps flash reads with SelectMAP writes, and it is what makes
// decompression nearly free for all but the slowest codecs (E2).
#pragma once

#include <span>
#include <vector>

#include "fabric/fabric.h"
#include "memory/rom.h"
#include "sim/time.h"

namespace aad::mcu {

struct ConfigEngineConfig {
  /// Decompressor clock (the configuration module's logic).
  sim::Frequency engine_clock = sim::Frequency::mhz(66);
  /// Difference-based flow (the paper's ref [4], XAPP290): compare each
  /// decompressed window against the frame's current configuration and
  /// skip the config-port write when they already match.  Re-loading a
  /// function into the frames it occupied before eviction then costs only
  /// the ROM + decompress stages.  The compare itself costs
  /// `compare_cycles_per_byte` on the engine clock.
  bool difference_based = false;
  double compare_cycles_per_byte = 0.25;
  /// Delta reconfiguration: the engine keeps a content hash per fabric
  /// frame (driver metadata — eviction frees frames but does not erase the
  /// fabric, so the record survives the function that wrote it).  A window
  /// whose target frame already holds exactly its content is skipped
  /// *entirely*: the provisioning-time window index lets the engine seek
  /// past that window's compressed span, so unlike difference_based the
  /// skip avoids the ROM and decompress stages too, and it matches across
  /// functions — an incremental variant of a resident function streams
  /// only its dirty frames.
  bool delta_reconfig = false;
  /// Per skipped window: frame-table lookup cost (engine cycles).
  double delta_check_cycles = 32.0;
};

struct ConfigureResult {
  sim::SimTime total;
  sim::SimTime rom_bound;         ///< sum of ROM-read stage times
  sim::SimTime decompress_bound;  ///< sum of decompress stage times
  sim::SimTime config_bound;      ///< sum of config-port stage times
  std::size_t frames_written = 0;
  std::size_t frames_skipped = 0; ///< all skipped port writes (both flows)
  std::size_t frames_skipped_delta = 0; ///< hash-tracked delta matches
  std::size_t compressed_bytes = 0; ///< full stream size in ROM
  /// Compressed bytes actually read from ROM: equals compressed_bytes
  /// except under delta_reconfig, where matched windows' spans are never
  /// fetched (apportioned evenly per window, like the ROM stage timing).
  std::size_t bytes_streamed = 0;
  std::size_t raw_bytes = 0;
};

/// FNV-1a fingerprint of one frame-sized window — the frame-table entry
/// delta reconfiguration tracks.  Never returns 0 (reserved for "unknown").
std::uint64_t window_content_hash(ByteSpan window) noexcept;

class ConfigEngine {
 public:
  explicit ConfigEngine(const ConfigEngineConfig& config = {})
      : config_(config) {}

  /// Stream `record`'s payload from `rom` into `targets` (one frame per
  /// window, in logical order).  Returns the pipelined timing breakdown.
  /// Throws kCorruptData on CRC mismatch or malformed stream,
  /// kInvalidArgument when the record's footprint does not match `targets`.
  ///
  /// The whole image is decoded and verified BEFORE the first frame is
  /// programmed: a corrupted bitstream is rejected cleanly — the fabric,
  /// the frame-hash tracker and the caller's bookkeeping are untouched —
  /// instead of leaving garbage frames behind a mid-stream failure.  When
  /// `expected_raw_crc` is nonzero it is checked (via common/crc32)
  /// against the full decoded image, catching decode divergence the
  /// compressed-payload CRC cannot see; zero skips the check (callers
  /// without provisioning-time metadata).
  ConfigureResult configure(const memory::RomImage& rom,
                            const memory::RomRecord& record,
                            std::span<const fabric::FrameIndex> targets,
                            fabric::Fabric& fabric,
                            const memory::RomTiming& rom_timing,
                            sim::SimTime start,
                            std::uint32_t expected_raw_crc = 0);

  const ConfigEngineConfig& config() const noexcept { return config_; }

  /// Content hash last streamed into frame `f` (0 = unknown).  Tracked
  /// only while delta_reconfig is on.
  std::uint64_t frame_hash(fabric::FrameIndex f) const noexcept {
    return f < frame_hashes_.size() ? frame_hashes_[f] : 0;
  }

  /// Forget every tracked frame (device erase — the fabric no longer holds
  /// what the table says it does).
  void reset_tracking() noexcept { frame_hashes_.clear(); }

  /// Closed-form mirror of configure()'s pipeline recurrence for a
  /// hypothetical load: `skip[w]` marks windows predicted to delta-match
  /// (empty = none).  Shared by Mcu::estimate_load and the auto-codec
  /// pick so planning can never drift from execution.
  sim::SimTime estimate_time(std::size_t compressed_bytes, unsigned frames,
                             compress::CodecId codec, std::size_t frame_bytes,
                             sim::SimTime frame_time,
                             const memory::RomTiming& rom_timing,
                             const std::vector<bool>& skip = {}) const;

 private:
  ConfigEngineConfig config_;
  std::vector<std::uint64_t> frame_hashes_;
};

}  // namespace aad::mcu
