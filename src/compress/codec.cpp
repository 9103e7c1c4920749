#include "compress/codec.h"

#include "compress/detail.h"

namespace aad::compress {

const char* to_string(CodecId id) noexcept {
  switch (id) {
    case CodecId::kNull: return "null";
    case CodecId::kRle: return "rle";
    case CodecId::kLzss: return "lzss";
    case CodecId::kHuffman: return "huffman";
    case CodecId::kGolomb: return "golomb";
    case CodecId::kFrameDelta: return "frame-delta";
    case CodecId::kDeltaGolomb: return "delta-golomb";
    case CodecId::kAuto: return "auto";
  }
  return "?";
}

CodecId codec_from_string(const std::string& name) {
  if (name == "auto") return CodecId::kAuto;
  for (const CodecId id : all_codec_ids())
    if (name == to_string(id)) return id;
  AAD_FAIL(ErrorCode::kInvalidArgument, "unknown codec name: " + name);
}

std::size_t raw_size(ByteSpan compressed) {
  return ByteReader(compressed).u32();
}

Bytes Codec::decompress(ByteSpan compressed) const {
  Bytes out(raw_size(compressed));
  decompress_into(compressed, out);
  return out;
}

namespace detail {

ByteReader read_header(ByteSpan compressed, std::size_t out_size) {
  ByteReader r(compressed);
  if (r.u32() != out_size)
    AAD_FAIL(ErrorCode::kCorruptData,
             "compressed stream raw size disagrees with the output buffer");
  return r;
}

}  // namespace detail

std::unique_ptr<Codec> make_codec(CodecId id, std::size_t frame_bytes) {
  switch (id) {
    case CodecId::kNull: return detail::make_null();
    case CodecId::kRle: return detail::make_rle();
    case CodecId::kLzss: return detail::make_lzss();
    case CodecId::kHuffman: return detail::make_huffman();
    case CodecId::kGolomb: return detail::make_golomb();
    case CodecId::kFrameDelta:
      AAD_REQUIRE(frame_bytes > 0, "frame-delta codec needs frame_bytes");
      return detail::make_frame_delta(frame_bytes);
    case CodecId::kDeltaGolomb:
      AAD_REQUIRE(frame_bytes > 0, "delta-golomb codec needs frame_bytes");
      return detail::make_delta_golomb(frame_bytes);
    case CodecId::kAuto:
      AAD_FAIL(ErrorCode::kInvalidArgument,
               "kAuto is a selection policy, not a codec");
  }
  AAD_FAIL(ErrorCode::kInvalidArgument, "unknown codec id");
}

std::vector<CodecId> all_codec_ids() {
  return {CodecId::kNull,       CodecId::kRle,    CodecId::kLzss,
          CodecId::kHuffman,    CodecId::kGolomb, CodecId::kFrameDelta,
          CodecId::kDeltaGolomb};
}

double decompress_cycles_per_byte(CodecId id) noexcept {
  switch (id) {
    case CodecId::kNull: return 0.25;       // straight copy / DMA
    case CodecId::kRle: return 1.0;         // byte ops
    case CodecId::kFrameDelta: return 1.5;  // RLE + XOR with history
    case CodecId::kLzss: return 2.0;        // window copies
    case CodecId::kGolomb: return 6.0;      // bit-serial
    case CodecId::kHuffman: return 8.0;     // bit-serial + table walk
    case CodecId::kDeltaGolomb: return 7.0; // bit-serial + XOR history
    case CodecId::kAuto: break;             // a selection policy, not a codec
  }
  return 1.0;
}

}  // namespace aad::compress
