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
#include <algorithm>

#include "compress/bitio.h"
#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

void rice_encode(BitWriter& bits, std::uint64_t value, unsigned k) {
  bits.put_unary(value >> k);
  bits.put_bits(value, k);
}

std::uint64_t rice_decode(BitReader& bits, unsigned k) {
  const std::uint64_t q = bits.get_unary();
  return (q << k) | bits.get_bits(k);
}

class DeltaGolombStream final : public DecompressStream {
 public:
  DeltaGolombStream(ByteSpan payload, std::size_t raw_size,
                    std::size_t frame_bytes, unsigned k)
      : bits_(payload),
        raw_size_(raw_size),
        k_(k),
        history_(frame_bytes, 0) {}

  std::size_t read(std::span<Byte> out) override {
    std::size_t produced = 0;
    while (produced < out.size() && emitted_ < raw_size_) {
      Byte delta;
      if (zeros_pending_ > 0) {
        --zeros_pending_;
        delta = 0;
      } else if (literal_pending_) {
        delta = literal_;
        literal_pending_ = false;
      } else {
        zeros_pending_ = rice_decode(bits_, k_);
        if (emitted_ + zeros_pending_ < raw_size_) {
          literal_ = static_cast<Byte>(bits_.get_bits(8));
          literal_pending_ = true;
        }
        continue;
      }
      const Byte reconstructed =
          static_cast<Byte>(delta ^ history_[history_pos_]);
      history_[history_pos_] = reconstructed;
      if (++history_pos_ == history_.size()) history_pos_ = 0;
      out[produced++] = reconstructed;
      ++emitted_;
    }
    return produced;
  }

  std::size_t raw_size() const override { return raw_size_; }

 private:
  BitReader bits_;
  std::size_t raw_size_;
  unsigned k_;
  Bytes history_;
  std::size_t history_pos_ = 0;
  std::size_t emitted_ = 0;
  std::size_t zeros_pending_ = 0;
  Byte literal_ = 0;
  bool literal_pending_ = false;
};

class DeltaGolombCodec final : public Codec {
 public:
  explicit DeltaGolombCodec(std::size_t frame_bytes)
      : frame_bytes_(frame_bytes) {
    AAD_REQUIRE(frame_bytes_ > 0, "frame_bytes must be positive");
  }

  CodecId id() const noexcept override { return CodecId::kDeltaGolomb; }
  std::string name() const override { return "delta-golomb"; }

  Bytes compress(ByteSpan raw) const override {
    Bytes delta(raw.size());
    std::size_t zeros = 0;
    std::size_t nonzeros = 0;
    for (std::size_t i = 0; i < raw.size(); ++i) {
      delta[i] = i >= frame_bytes_
                     ? static_cast<Byte>(raw[i] ^ raw[i - frame_bytes_])
                     : raw[i];
      (delta[i] == 0 ? zeros : nonzeros)++;
    }
    const double mean_run =
        static_cast<double>(zeros) / std::max<std::size_t>(1, nonzeros + 1);
    unsigned k = 0;
    while ((1u << (k + 1)) <= mean_run + 1 && k < 30) ++k;

    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.u32(static_cast<std::uint32_t>(frame_bytes_));
    w.u8(static_cast<std::uint8_t>(k));
    BitWriter bits;
    std::size_t run = 0;
    for (Byte b : delta) {
      if (b == 0) {
        ++run;
      } else {
        rice_encode(bits, run, k);
        bits.put_bits(b, 8);
        run = 0;
      }
    }
    if (run > 0) rice_encode(bits, run, k);
    w.bytes(bits.finish());
    return std::move(w).take();
  }

  std::unique_ptr<DecompressStream> decompress_stream(
      ByteSpan compressed) const override {
    ByteReader r(compressed);
    const std::size_t raw_size = r.u32();
    const std::size_t frame_bytes = r.u32();
    const unsigned k = r.u8();
    // frame_bytes sizes the history buffer, so it must be the codec's own.
    if (frame_bytes != frame_bytes_ || k > 30)
      AAD_FAIL(ErrorCode::kCorruptData, "delta-golomb header invalid");
    return std::make_unique<DeltaGolombStream>(compressed.subspan(9),
                                               raw_size, frame_bytes, k);
  }

 private:
  std::size_t frame_bytes_;
};

}  // namespace

std::unique_ptr<Codec> make_delta_golomb(std::size_t frame_bytes) {
  return std::make_unique<DeltaGolombCodec>(frame_bytes);
}

}  // namespace aad::compress::detail
