// Rice/Golomb codec for sparse streams.
//
// Configuration planes are mostly zero (unused slots, empty routing), so the
// stream is modeled as zero runs separated by literal non-zero bytes:
//   token := rice(run_length, k) [ literal(8) ]
// The literal is omitted after the final run (the decoder knows raw_size).
// The Rice parameter k is fitted to the mean zero-run length and stored in
// the header: u32 raw_size, u8 k, bit stream.
#include <algorithm>

#include "compress/bitio.h"
#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

constexpr unsigned kMaxK = 30;

void rice_encode(BitWriter& bits, std::uint64_t value, unsigned k) {
  bits.put_unary(value >> k);
  bits.put_bits(value, k);
}

std::uint64_t rice_decode(BitReader& bits, unsigned k) {
  const std::uint64_t q = bits.get_unary();
  return (q << k) | bits.get_bits(k);
}

class GolombCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::kGolomb; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.bytes(zero_run_encode(raw));
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    zero_run_decode(
        compressed.subspan(read_header(compressed, out.size()).offset()), out);
  }
};

}  // namespace

Bytes zero_run_encode(ByteSpan raw) {
  std::size_t zeros = 0;
  std::size_t nonzeros = 0;
  for (Byte b : raw) (b == 0 ? zeros : nonzeros)++;
  const double mean_run =
      static_cast<double>(zeros) / std::max<std::size_t>(1, nonzeros + 1);
  unsigned k = 0;
  while ((1u << (k + 1)) <= mean_run + 1 && k < kMaxK) ++k;

  BitWriter bits;
  std::size_t run = 0;
  for (Byte b : raw) {
    if (b == 0) {
      ++run;
    } else {
      rice_encode(bits, run, k);
      bits.put_bits(b, 8);
      run = 0;
    }
  }
  if (run > 0) rice_encode(bits, run, k);
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(k));
  w.bytes(bits.finish());
  return std::move(w).take();
}

void zero_run_decode(ByteSpan body, std::span<Byte> out) {
  ByteReader r(body);
  const unsigned k = r.u8();
  if (k > kMaxK) AAD_FAIL(ErrorCode::kCorruptData, "Rice parameter invalid");
  BitReader bits(body.subspan(r.offset()));
  for (auto o = out.begin(); o != out.end();) {
    const std::uint64_t run = rice_decode(bits, k);
    if (run > static_cast<std::uint64_t>(out.end() - o))
      AAD_FAIL(ErrorCode::kCorruptData, "zero run overruns the output");
    o = std::fill_n(o, run, Byte{0});
    if (o != out.end()) *o++ = static_cast<Byte>(bits.get_bits(8));
  }
}

std::unique_ptr<Codec> make_golomb() {
  return std::make_unique<GolombCodec>();
}

}  // namespace aad::compress::detail
