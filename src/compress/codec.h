// Bitstream compression codecs.
//
// The paper stores *compressed* configuration bit-streams in ROM (§2.2) and
// the configuration module "decompresses the compressed bit-stream window by
// window" (§2.3).  The configuration engine (mcu::ConfigEngine) decodes the
// whole image into one buffer and checks its CRC before it programs any
// frame, so a corrupt stream never reaches the fabric; the window-by-window
// behaviour lives in the engine's timing recurrence (ROM read | decompress |
// config port, per window), not in the decoders.  Each codec therefore has
// one compressor and one straight-line decoder into a caller-sized buffer.
//
// Container format (shared by all codecs): u32 raw_size (LE) followed by the
// codec-specific stream.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/bytebuffer.h"

namespace aad::compress {

enum class CodecId : std::uint8_t {
  kNull = 0,       ///< stored; baseline
  kRle = 1,        ///< byte run-length
  kLzss = 2,       ///< LZSS, 4 KiB window, 3..18 byte matches
  kHuffman = 3,    ///< canonical byte Huffman
  kGolomb = 4,     ///< Rice-coded zero runs + literals (sparse streams)
  kFrameDelta = 5, ///< XOR with previous frame, then RLE (paper §4 open
                   ///< problem: exploits inter-frame CLB symmetry)
  kDeltaGolomb = 6,///< XOR with previous frame, then Rice-coded zero runs
                   ///< (the open problem pushed further; see
                   ///< bench_compression's ablation)
  kAuto = 255,     ///< not a codec: provisioning-time sentinel asking the
                   ///< MCU to trial-compress with every real codec and pick
                   ///< the one with the cheapest modeled load (mcu::Mcu)
};

const char* to_string(CodecId id) noexcept;

/// Inverse of to_string, accepting every real codec name plus "auto".
/// Throws ErrorCode::kInvalidArgument on an unknown name.
CodecId codec_from_string(const std::string& name);

/// The raw size a container's header declares.  Throws
/// ErrorCode::kCorruptData when the header is cut short.
std::size_t raw_size(ByteSpan compressed);

class Codec {
 public:
  virtual ~Codec() = default;
  virtual CodecId id() const noexcept = 0;

  /// One-shot compression (host side, during function provisioning).
  virtual Bytes compress(ByteSpan raw) const = 0;

  /// Decode `compressed` into `out`, whose size the caller chose.  Throws
  /// ErrorCode::kCorruptData when the header's raw size is not out.size(),
  /// the stream ends before `out` is full, or a token is invalid or would
  /// write past the end of `out`.
  virtual void decompress_into(ByteSpan compressed,
                               std::span<Byte> out) const = 0;

  /// Convenience: decode into a buffer sized from the header.
  Bytes decompress(ByteSpan compressed) const;
};

/// Factory.  `frame_bytes` parameterizes kFrameDelta and kDeltaGolomb (the
/// window/frame size of the target device); other codecs ignore it.
/// kAuto is a selection policy, not a codec — asking for it throws.
std::unique_ptr<Codec> make_codec(CodecId id, std::size_t frame_bytes = 0);

/// All real codec ids (kAuto excluded), in presentation order for
/// experiments — and the candidate set the auto pick chooses from.
std::vector<CodecId> all_codec_ids();

/// MCU-side decompression cost model (configuration-module cycles per
/// *output* byte).  Calibrated to the relative work each decoder does:
/// table-free copies are cheapest, bit-serial entropy coders dearest.
double decompress_cycles_per_byte(CodecId id) noexcept;

}  // namespace aad::compress
