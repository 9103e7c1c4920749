// Frame-delta codec: the paper's §4 open problem made concrete.
//
// Consecutive configuration frames of a column-regular fabric are highly
// similar (same CLB layout, repeated LUT dictionary, shared routing
// patterns).  XOR-ing each frame with its predecessor turns that symmetry
// into long zero runs, which plain RLE then collapses.
//
// Header: u32 raw_size, u32 frame_bytes, then RLE ops over the delta
// stream.  The streaming decoder's working set is exactly one frame of
// history — it reconstructs window by window, as §2.3 requires.
#include <algorithm>

#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

class FrameDeltaStream final : public DecompressStream {
 public:
  FrameDeltaStream(ByteSpan payload, std::size_t raw_size,
                   std::size_t frame_bytes)
      : decoder_(payload),
        raw_size_(raw_size),
        history_(frame_bytes, 0) {}

  std::size_t read(std::span<Byte> out) override {
    const std::size_t want = std::min(out.size(), raw_size_ - produced_);
    const std::size_t got = decoder_.read(out.subspan(0, want));
    // XOR against the history frame one contiguous span at a time, up to
    // the wrap point, so the inner loop has no branch and vectorizes.
    for (std::size_t done = 0; done < got;) {
      const std::size_t n =
          std::min(got - done, history_.size() - history_pos_);
      Byte* o = out.data() + done;
      Byte* h = history_.data() + history_pos_;
      for (std::size_t i = 0; i < n; ++i) {
        const Byte reconstructed = static_cast<Byte>(o[i] ^ h[i]);
        o[i] = reconstructed;
        h[i] = reconstructed;
      }
      done += n;
      history_pos_ += n;
      if (history_pos_ == history_.size()) history_pos_ = 0;
    }
    produced_ += got;
    return got;
  }

  std::size_t raw_size() const override { return raw_size_; }

 private:
  RleDecoder decoder_;
  std::size_t raw_size_;
  std::size_t produced_ = 0;
  Bytes history_;  // previous frame, reconstructed
  std::size_t history_pos_ = 0;
};

class FrameDeltaCodec final : public Codec {
 public:
  explicit FrameDeltaCodec(std::size_t frame_bytes)
      : frame_bytes_(frame_bytes) {
    AAD_REQUIRE(frame_bytes_ > 0, "frame_bytes must be positive");
  }

  CodecId id() const noexcept override { return CodecId::kFrameDelta; }
  std::string name() const override { return "frame-delta"; }

  Bytes compress(ByteSpan raw) const override {
    Bytes delta(raw.size());
    for (std::size_t i = 0; i < raw.size(); ++i)
      delta[i] = i >= frame_bytes_
                     ? static_cast<Byte>(raw[i] ^ raw[i - frame_bytes_])
                     : raw[i];
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.u32(static_cast<std::uint32_t>(frame_bytes_));
    w.bytes(rle_encode(delta));
    return std::move(w).take();
  }

  std::unique_ptr<DecompressStream> decompress_stream(
      ByteSpan compressed) const override {
    ByteReader r(compressed);
    const std::size_t raw_size = r.u32();
    const std::size_t frame_bytes = r.u32();
    // The history buffer is sized from this field, so a corrupt header
    // must not choose it: it has to be the frame size this codec encodes.
    if (frame_bytes != frame_bytes_)
      AAD_FAIL(ErrorCode::kCorruptData,
               "frame-delta frame_bytes disagrees with the codec");
    return std::make_unique<FrameDeltaStream>(compressed.subspan(8),
                                              raw_size, frame_bytes);
  }

 private:
  std::size_t frame_bytes_;
};

}  // namespace

std::unique_ptr<Codec> make_frame_delta(std::size_t frame_bytes) {
  return std::make_unique<FrameDeltaCodec>(frame_bytes);
}

}  // namespace aad::compress::detail
