// MSB-first bit-level I/O used by the Huffman and Golomb codecs.
#pragma once

#include <cstdint>

#include "common/bytebuffer.h"

namespace aad::compress {

class BitWriter {
 public:
  void put_bit(bool bit) {
    current_ = static_cast<Byte>((current_ << 1) | (bit ? 1u : 0u));
    if (++filled_ == 8) flush_byte();
  }

  /// Write the low `count` bits of `value`, most significant first.
  void put_bits(std::uint64_t value, unsigned count) {
    for (unsigned i = count; i-- > 0;) put_bit((value >> i) & 1u);
  }

  /// Unary: `value` ones then a zero.
  void put_unary(std::uint64_t value) {
    for (std::uint64_t i = 0; i < value; ++i) put_bit(true);
    put_bit(false);
  }

  /// Pad to a byte boundary with zeros and return the buffer.
  Bytes finish() {
    while (filled_ != 0) put_bit(false);
    return std::move(out_);
  }

 private:
  void flush_byte() {
    out_.push_back(current_);
    current_ = 0;
    filled_ = 0;
  }

  Bytes out_;
  Byte current_ = 0;
  unsigned filled_ = 0;
};

class BitReader {
 public:
  explicit BitReader(ByteSpan data) : data_(data) {}

  bool get_bit() {
    if (byte_ >= data_.size())
      AAD_FAIL(ErrorCode::kCorruptData, "bit stream truncated");
    const bool bit = (data_[byte_] >> (7 - bit_)) & 1u;
    if (++bit_ == 8) {
      bit_ = 0;
      ++byte_;
    }
    return bit;
  }

  std::uint64_t get_bits(unsigned count) {
    std::uint64_t v = 0;
    for (unsigned i = 0; i < count; ++i) v = (v << 1) | (get_bit() ? 1u : 0u);
    return v;
  }

  std::uint64_t get_unary() {
    std::uint64_t v = 0;
    while (get_bit()) ++v;
    return v;
  }

 private:
  ByteSpan data_;
  std::size_t byte_ = 0;
  unsigned bit_ = 0;
};

}  // namespace aad::compress
