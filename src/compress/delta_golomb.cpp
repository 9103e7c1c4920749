// Delta+Golomb codec: the §4 open problem taken one step further.
//
// FrameDelta showed that XOR-ing against the previous frame converts
// CLB-column symmetry into zero bytes; this codec replaces the RLE back end
// with Rice-coded zero runs, which encode the (geometrically distributed)
// gaps between surviving difference bytes far more tightly.  The ablation
// in bench_compression compares rle / delta+rle / golomb / delta+golomb to
// isolate the two effects.
//
// Header: u32 raw_size, u32 frame_bytes, u8 k, bit stream of
// rice(zero_run) [literal(8)] tokens over the delta stream.
#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

class DeltaGolombCodec final : public Codec {
 public:
  explicit DeltaGolombCodec(std::size_t frame_bytes)
      : frame_bytes_(frame_bytes) {
    AAD_REQUIRE(frame_bytes_ > 0, "frame_bytes must be positive");
  }

  CodecId id() const noexcept override { return CodecId::kDeltaGolomb; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.u32(static_cast<std::uint32_t>(frame_bytes_));
    w.bytes(zero_run_encode(frame_delta(raw, frame_bytes_)));
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    ByteReader r = read_header(compressed, out.size());
    if (r.u32() != frame_bytes_)
      AAD_FAIL(ErrorCode::kCorruptData,
               "delta-golomb frame_bytes disagrees with the codec");
    zero_run_decode(compressed.subspan(r.offset()), out);
    undo_frame_delta(out, frame_bytes_);
  }

 private:
  std::size_t frame_bytes_;
};

}  // namespace

std::unique_ptr<Codec> make_delta_golomb(std::size_t frame_bytes) {
  return std::make_unique<DeltaGolombCodec>(frame_bytes);
}

}  // namespace aad::compress::detail
