// LZSS with a 4 KiB sliding window.
//
// Token groups: one flag byte describes the next 8 tokens MSB-first
// (1 = literal byte, 0 = match).  A match is two bytes:
//   byte0 = offset[11:4], byte1 = offset[3:0] << 4 | (length - 3)
// with offset in 1..4096 (distance back from the current position, stored
// minus 1) and length in 3..18.
//
// The compressor uses a 3-byte-prefix hash chain with bounded probe depth —
// the standard speed/ratio trade-off point for this family.
#include <algorithm>

#include "compress/detail.h"

namespace aad::compress::detail {
namespace {

constexpr std::size_t kWindow = 4096;
constexpr std::size_t kMinMatch = 3;
constexpr std::size_t kMaxMatch = 18;
constexpr int kMaxProbes = 64;
constexpr std::size_t kHashSize = 1u << 15;

std::size_t hash3(const Byte* p) noexcept {
  const std::uint32_t v = static_cast<std::uint32_t>(p[0]) |
                          (static_cast<std::uint32_t>(p[1]) << 8) |
                          (static_cast<std::uint32_t>(p[2]) << 16);
  return (v * 2654435761u) >> (32 - 15);
}

class LzssCodec final : public Codec {
 public:
  CodecId id() const noexcept override { return CodecId::kLzss; }

  Bytes compress(ByteSpan raw) const override {
    ByteWriter header;
    header.u32(static_cast<std::uint32_t>(raw.size()));
    Bytes out = std::move(header).take();

    std::vector<std::int64_t> head(kHashSize, -1);
    std::vector<std::int64_t> chain(raw.size(), -1);

    Bytes group;          // up to 8 tokens
    Byte flags = 0;
    unsigned token_count = 0;
    auto flush_group = [&] {
      if (token_count == 0) return;
      flags = static_cast<Byte>(flags << (8 - token_count));
      out.push_back(flags);
      out.insert(out.end(), group.begin(), group.end());
      group.clear();
      flags = 0;
      token_count = 0;
    };

    std::size_t i = 0;
    while (i < raw.size()) {
      std::size_t best_len = 0;
      std::size_t best_off = 0;
      if (i + kMinMatch <= raw.size()) {
        const std::size_t h = hash3(&raw[i]);
        std::int64_t cand = head[h];
        int probes = 0;
        while (cand >= 0 && probes++ < kMaxProbes &&
               i - static_cast<std::size_t>(cand) <= kWindow) {
          const std::size_t c = static_cast<std::size_t>(cand);
          const std::size_t limit = std::min(kMaxMatch, raw.size() - i);
          std::size_t len = 0;
          while (len < limit && raw[c + len] == raw[i + len]) ++len;
          if (len > best_len) {
            best_len = len;
            best_off = i - c;
            if (len == kMaxMatch) break;
          }
          cand = chain[c];
        }
      }

      if (best_len >= kMinMatch) {
        // Match token.
        flags = static_cast<Byte>(flags << 1);  // 0 bit
        ++token_count;
        const std::size_t stored_off = best_off - 1;
        group.push_back(static_cast<Byte>(stored_off >> 4));
        group.push_back(static_cast<Byte>(((stored_off & 0x0F) << 4) |
                                          (best_len - kMinMatch)));
        for (std::size_t k = 0; k < best_len; ++k) {
          if (i + kMinMatch <= raw.size()) {
            const std::size_t h = hash3(&raw[i]);
            chain[i] = head[h];
            head[h] = static_cast<std::int64_t>(i);
          }
          ++i;
        }
      } else {
        // Literal token.
        flags = static_cast<Byte>((flags << 1) | 1u);
        ++token_count;
        group.push_back(raw[i]);
        if (i + kMinMatch <= raw.size()) {
          const std::size_t h = hash3(&raw[i]);
          chain[i] = head[h];
          head[h] = static_cast<std::int64_t>(i);
        }
        ++i;
      }
      if (token_count == 8) flush_group();
    }
    flush_group();
    return out;
  }

  void decompress_into(ByteSpan compressed,
                       std::span<Byte> out) const override {
    const ByteSpan in =
        compressed.subspan(read_header(compressed, out.size()).offset());
    std::size_t pos = 0;
    const auto next_byte = [&] {
      if (pos >= in.size())
        AAD_FAIL(ErrorCode::kCorruptData, "LZSS stream truncated");
      return in[pos++];
    };
    Byte flags = 0;
    unsigned flag_bits = 0;
    std::size_t produced = 0;
    while (produced < out.size()) {
      if (flag_bits == 0) {
        flags = next_byte();
        flag_bits = 8;
      }
      const bool literal = (flags & 0x80) != 0;
      flags = static_cast<Byte>(flags << 1);
      --flag_bits;
      if (literal) {
        out[produced++] = next_byte();
        continue;
      }
      const Byte b0 = next_byte();
      const Byte b1 = next_byte();
      const std::size_t offset =
          ((static_cast<std::size_t>(b0) << 4) | (b1 >> 4)) + 1;
      const std::size_t length = static_cast<std::size_t>(b1 & 0x0F) + kMinMatch;
      if (offset > produced)
        AAD_FAIL(ErrorCode::kCorruptData, "LZSS offset before stream start");
      if (length > out.size() - produced)
        AAD_FAIL(ErrorCode::kCorruptData, "LZSS match overruns the output");
      // The match is copied from the output itself, byte by byte, so an
      // overlapping match (offset < length) re-reads bytes it just wrote.
      for (const std::size_t end = produced + length; produced < end;
           ++produced)
        out[produced] = out[produced - offset];
    }
  }
};

}  // namespace

std::unique_ptr<Codec> make_lzss() { return std::make_unique<LzssCodec>(); }

}  // namespace aad::compress::detail
