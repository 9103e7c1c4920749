// Frame-delta codec: the paper's §4 open problem made concrete.
//
// Consecutive configuration frames of a column-regular fabric are highly
// similar (same CLB layout, repeated LUT dictionary, shared routing
// patterns).  XOR-ing each frame with its predecessor turns that symmetry
// into long zero runs, which plain RLE then collapses.
//
// Header: u32 raw_size, u32 frame_bytes, then RLE ops over the delta
// stream.  The decoder expands the RLE ops into the output, then XORs each
// byte with the already rebuilt one a frame earlier in that same output.
#include <algorithm>

#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

class FrameDeltaCodec final : public Codec {
 public:
  explicit FrameDeltaCodec(std::size_t frame_bytes)
      : frame_bytes_(frame_bytes) {
    AAD_REQUIRE(frame_bytes_ > 0, "frame_bytes must be positive");
  }

  CodecId id() const noexcept override { return CodecId::kFrameDelta; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.u32(static_cast<std::uint32_t>(frame_bytes_));
    w.bytes(rle_encode(frame_delta(raw, frame_bytes_)));
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    ByteReader r = read_header(compressed, out.size());
    if (r.u32() != frame_bytes_)
      AAD_FAIL(ErrorCode::kCorruptData,
               "frame-delta frame_bytes disagrees with the codec");
    rle_decode(compressed.subspan(r.offset()), out);
    undo_frame_delta(out, frame_bytes_);
  }

 private:
  std::size_t frame_bytes_;
};

}  // namespace

Bytes frame_delta(ByteSpan raw, std::size_t frame_bytes) {
  Bytes delta(raw.begin(), raw.end());
  for (std::size_t i = frame_bytes; i < raw.size(); ++i)
    delta[i] = static_cast<Byte>(raw[i] ^ raw[i - frame_bytes]);
  return delta;
}

void undo_frame_delta(std::span<Byte> out, std::size_t frame_bytes) {
  // One frame at a time, so the inner loop reads only the finished frame
  // before it and vectorizes.
  for (std::size_t start = frame_bytes; start < out.size();
       start += frame_bytes) {
    Byte* cur = out.data() + start;
    const Byte* prev = cur - frame_bytes;
    const std::size_t n = std::min(frame_bytes, out.size() - start);
    for (std::size_t i = 0; i < n; ++i) cur[i] ^= prev[i];
  }
}

std::unique_ptr<Codec> make_frame_delta(std::size_t frame_bytes) {
  return std::make_unique<FrameDeltaCodec>(frame_bytes);
}

}  // namespace aad::compress::detail
