// Null (stored) codec and byte run-length codec.
//
// RLE op format: control byte c —
//   c < 0x80 : literal run, c+1 bytes follow (1..128)
//   c >= 0x80: repeat run, byte follows, repeated (c-0x80)+3 times (3..130)
#include <algorithm>

#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

constexpr std::size_t kMaxLiteral = 128;
constexpr std::size_t kMinRepeat = 3;
constexpr std::size_t kMaxRepeat = 130;

class NullCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::kNull; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.bytes(raw);
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    const ByteSpan payload =
        compressed.subspan(read_header(compressed, out.size()).offset());
    if (payload.size() != out.size())
      AAD_FAIL(ErrorCode::kCorruptData, "stored payload length mismatch");
    std::copy(payload.begin(), payload.end(), out.begin());
  }
};

class RleCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::kRle; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(raw.size()));
    w.bytes(rle_encode(raw));
    return std::move(w).take();
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    rle_decode(
        compressed.subspan(read_header(compressed, out.size()).offset()), out);
  }
};

}  // namespace

Bytes rle_encode(ByteSpan raw) {
  Bytes out;
  std::size_t i = 0;
  std::size_t literal_start = 0;
  auto flush_literals = [&](std::size_t end) {
    std::size_t start = literal_start;
    while (start < end) {
      const std::size_t n = std::min(kMaxLiteral, end - start);
      out.push_back(static_cast<Byte>(n - 1));
      out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(start),
                 raw.begin() + static_cast<std::ptrdiff_t>(start + n));
      start += n;
    }
  };
  while (i < raw.size()) {
    std::size_t run = 1;
    while (i + run < raw.size() && raw[i + run] == raw[i] &&
           run < kMaxRepeat)
      ++run;
    if (run >= kMinRepeat) {
      flush_literals(i);
      out.push_back(static_cast<Byte>(0x80 + (run - kMinRepeat)));
      out.push_back(raw[i]);
      i += run;
      literal_start = i;
    } else {
      i += run;
    }
  }
  flush_literals(raw.size());
  return out;
}

void rle_decode(ByteSpan ops, std::span<Byte> out) {
  std::size_t pos = 0;
  for (auto o = out.begin(); o != out.end();) {
    if (pos >= ops.size())
      AAD_FAIL(ErrorCode::kCorruptData, "RLE stream truncated");
    const Byte control = ops[pos++];
    const bool repeat = control >= 0x80;
    const std::size_t n = repeat
                              ? static_cast<std::size_t>(control - 0x80) +
                                    kMinRepeat
                              : static_cast<std::size_t>(control) + 1;
    if (n > static_cast<std::size_t>(out.end() - o))
      AAD_FAIL(ErrorCode::kCorruptData, "RLE run overruns the output");
    const std::size_t need = repeat ? 1 : n;
    if (need > ops.size() - pos)
      AAD_FAIL(ErrorCode::kCorruptData, "RLE run truncated");
    const auto in = ops.begin() + static_cast<std::ptrdiff_t>(pos);
    o = repeat ? std::fill_n(o, n, *in) : std::copy_n(in, n, o);
    pos += need;
  }
}

std::unique_ptr<Codec> make_null() { return std::make_unique<NullCodec>(); }
std::unique_ptr<Codec> make_rle() { return std::make_unique<RleCodec>(); }

}  // namespace aad::compress::detail
