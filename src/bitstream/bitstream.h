// Open, frame-addressed configuration bitstream format ("AADB").
//
// A bitstream is a header plus an ordered list of *relocatable* frame
// payloads (logical frame order; physical placement is chosen by the
// mini-OS at load time) followed by a CRC-32 of everything before it.
//
// Two function kinds share the container:
//   * kNetlist    — payloads encode a real LUT network; the fabric executes
//                   it from the configuration plane.
//   * kBehavioral — payloads are synthesized with realistic structure
//                   (synth.h); execution is delegated to a registered
//                   behavioral model with a calibrated cycle cost.  This is
//                   the documented substitution for kernels too large to
//                   gate-map (see DESIGN.md §2).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytebuffer.h"
#include "fabric/geometry.h"
#include "netlist/lutnetwork.h"

namespace aad::bitstream {

constexpr std::uint32_t kMagic = 0x42444141u;  // "AADB" little-endian
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kNameBytes = 24;

enum class FunctionKind : std::uint8_t { kNetlist = 0, kBehavioral = 1 };

const char* to_string(FunctionKind kind) noexcept;

struct BitstreamInfo {
  std::string name;                  ///< function name (<= 24 bytes)
  FunctionKind kind = FunctionKind::kNetlist;
  fabric::FrameGeometry geometry;    ///< device the stream was built for
  std::uint32_t input_width = 0;     ///< input bus bits per cycle
  std::uint32_t output_width = 0;    ///< output bus bits per cycle
  std::uint32_t kernel_id = 0;       ///< catalog kernel id (0 = none)

  bool operator==(const BitstreamInfo&) const = default;
};

struct Bitstream {
  BitstreamInfo info;
  std::vector<std::vector<fabric::Word>> frames;  ///< logical load order

  std::size_t frame_count() const noexcept { return frames.size(); }
  /// Raw (uncompressed) serialized size in bytes.
  std::size_t byte_size() const noexcept;

  bool operator==(const Bitstream&) const = default;
};

/// Serialize to the on-ROM byte layout (with trailing CRC-32).
Bytes serialize(const Bitstream& bitstream);

/// Parse and validate (magic, version, geometry sanity, CRC).
/// Throws kCorruptData on any violation.
Bitstream parse(ByteSpan data);

/// Build a netlist-kind bitstream from a mapped LUT network.
Bitstream from_network(const netlist::LutNetwork& network,
                       const fabric::FrameGeometry& geometry);

/// Concatenate the frame payload words (little-endian) — the byte stream
/// the ROM stores in compressed form.  Metadata travels in the ROM record,
/// not the stream, so the configuration module can reconstruct frames
/// window by window without buffering a header.
Bytes pack_frame_payloads(const Bitstream& bitstream);

/// Inverse of one window of pack_frame_payloads: turn `frame_bytes` bytes
/// back into configuration words.  Size must be a multiple of 4.
std::vector<fabric::Word> bytes_to_words(ByteSpan data);

}  // namespace aad::bitstream
