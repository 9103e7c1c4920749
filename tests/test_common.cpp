// Unit tests for src/common: bit utilities, byte serialization, CRC-32,
// deterministic PRNG and the error taxonomy.
#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/bytebuffer.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/prng.h"

namespace aad {
namespace {

// --- bitops -----------------------------------------------------------------

TEST(Bitops, GetAndWithBit) {
  EXPECT_TRUE(bits::get_bit(0b1010, 1));
  EXPECT_FALSE(bits::get_bit(0b1010, 0));
  EXPECT_EQ(bits::with_bit(0, 5, true), 32u);
  EXPECT_EQ(bits::with_bit(32, 5, false), 0u);
}

TEST(Bitops, LowMaskBoundaries) {
  EXPECT_EQ(bits::low_mask(0), 0u);
  EXPECT_EQ(bits::low_mask(1), 1u);
  EXPECT_EQ(bits::low_mask(32), 0xFFFFFFFFull);
  EXPECT_EQ(bits::low_mask(64), ~std::uint64_t{0});
}

TEST(Bitops, FieldExtractInsert) {
  const std::uint64_t word = 0xABCD1234u;
  EXPECT_EQ(bits::field(word, 8, 8), 0x12u);
  EXPECT_EQ(bits::with_field(word, 8, 8, 0xFF), 0xABCDFF34u);
}

TEST(Bitops, ReverseBits) {
  EXPECT_EQ(bits::reverse_bits(0b001, 3), 0b100u);
  EXPECT_EQ(bits::reverse_bits(0b110, 3), 0b011u);
  // Involution property.
  for (std::uint64_t v = 0; v < 64; ++v)
    EXPECT_EQ(bits::reverse_bits(bits::reverse_bits(v, 6), 6), v);
}

TEST(Bitops, CeilDivAndRoundUp) {
  EXPECT_EQ(bits::ceil_div(0, 4), 0u);
  EXPECT_EQ(bits::ceil_div(1, 4), 1u);
  EXPECT_EQ(bits::ceil_div(4, 4), 1u);
  EXPECT_EQ(bits::ceil_div(5, 4), 2u);
  EXPECT_EQ(bits::round_up(5, 4), 8u);
  EXPECT_EQ(bits::round_up(8, 4), 8u);
}

TEST(Bitops, Pow2Helpers) {
  EXPECT_TRUE(bits::is_pow2(1));
  EXPECT_TRUE(bits::is_pow2(64));
  EXPECT_FALSE(bits::is_pow2(0));
  EXPECT_FALSE(bits::is_pow2(6));
  EXPECT_EQ(bits::log2_exact(256), 8u);
}

TEST(BitVector, SetGetCount) {
  bits::BitVector v(130);
  EXPECT_EQ(v.size(), 130u);
  EXPECT_EQ(v.count(), 0u);
  v.set(0, true);
  v.set(64, true);
  v.set(129, true);
  EXPECT_EQ(v.count(), 3u);
  EXPECT_TRUE(v.get(64));
  EXPECT_FALSE(v.get(63));
  v.set(64, false);
  EXPECT_EQ(v.count(), 2u);
}

TEST(BitVector, FillKeepsTailZero) {
  bits::BitVector v(70, /*fill=*/true);
  EXPECT_EQ(v.count(), 70u);  // bits beyond size never counted
}

TEST(BitVector, OutOfRangeThrows) {
  bits::BitVector v(8);
  EXPECT_THROW(v.get(8), Error);
  EXPECT_THROW(v.set(9, true), Error);
}

// --- byte buffer --------------------------------------------------------------

TEST(ByteBuffer, ScalarRoundtrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.at_end());
}

TEST(ByteBuffer, LittleEndianLayout) {
  ByteWriter w;
  w.u32(0x04030201);
  ASSERT_EQ(w.size(), 4u);
  EXPECT_EQ(w.data()[0], 0x01);
  EXPECT_EQ(w.data()[3], 0x04);
}

TEST(ByteBuffer, FixedStringPadsAndTruncates) {
  ByteWriter w;
  w.fixed_string("abc", 8);
  w.fixed_string("longername", 4);
  ByteReader r(w.data());
  EXPECT_EQ(r.fixed_string(8), "abc");
  EXPECT_EQ(r.fixed_string(4), "long");
}

TEST(ByteBuffer, ReadPastEndThrowsCorruptData) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  r.u8();
  EXPECT_THROW(r.u32(), Error);
  try {
    ByteReader r2(w.data());
    r2.u64();
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
}

TEST(ByteBuffer, PatchU32) {
  ByteWriter w;
  w.u32(0);
  w.u8(0x55);
  w.patch_u32(0, 0xCAFEBABE);
  ByteReader r(w.data());
  EXPECT_EQ(r.u32(), 0xCAFEBABEu);
  EXPECT_EQ(r.u8(), 0x55);
}

TEST(ByteBuffer, SkipAndRemaining) {
  Bytes data(10, 0x11);
  ByteReader r(data);
  r.skip(4);
  EXPECT_EQ(r.remaining(), 6u);
  EXPECT_THROW(r.skip(7), Error);
}

// --- CRC-32 -------------------------------------------------------------------

TEST(Crc32Test, StandardCheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(Crc32::compute(ByteSpan(
                reinterpret_cast<const Byte*>(s.data()), s.size())),
            0xCBF43926u);
}

TEST(Crc32Test, EmptyIsZero) {
  EXPECT_EQ(Crc32::compute(ByteSpan{}), 0x00000000u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data(1000);
  Prng rng(7);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  Crc32 inc;
  inc.update(ByteSpan(data.data(), 100));
  inc.update(ByteSpan(data.data() + 100, 900));
  EXPECT_EQ(inc.value(), Crc32::compute(data));
}

TEST(Crc32Test, ResetRestoresSeed) {
  Crc32 crc;
  crc.update(Byte{0x42});
  crc.reset();
  EXPECT_EQ(crc.value(), Crc32::compute(ByteSpan{}));
}

// Bit-at-a-time reference: the reflected polynomial loop with no table, so
// it shares nothing with the slice-by-8 implementation it checks.
std::uint32_t reference_crc32(ByteSpan data) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const Byte b : data) {
    c ^= b;
    for (int k = 0; k < 8; ++k)
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
  }
  return c ^ 0xFFFFFFFFu;
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Bytes data(n);
  Prng rng(seed);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  return data;
}

TEST(Crc32Test, ReferenceAgreesOnCheckValue) {
  const std::string s = "123456789";
  EXPECT_EQ(reference_crc32(ByteSpan(
                reinterpret_cast<const Byte*>(s.data()), s.size())),
            0xCBF43926u);
}

// Every length 0-72 from every start offset 0-7: covers 0-9 whole 8-byte
// steps, every tail length and every alignment of the input pointer.
TEST(Crc32Test, MatchesReferenceAtEveryLengthAndOffset) {
  const Bytes data = random_bytes(80, 0xC3C3);
  for (std::size_t offset = 0; offset < 8; ++offset)
    for (std::size_t len = 0; len <= 72; ++len) {
      const ByteSpan span(data.data() + offset, len);
      EXPECT_EQ(Crc32::compute(span), reference_crc32(span))
          << "offset=" << offset << " len=" << len;
    }
}

TEST(Crc32Test, MatchesReferenceOnRomSizedPayload) {
  const Bytes data = random_bytes(6300, 424242);
  EXPECT_EQ(Crc32::compute(data), reference_crc32(data));
}

// Every split point of a 67-byte buffer, with the halves fed as spans, as
// single bytes, and mixed: the running state must carry across any call
// boundary, whichever overload consumed the bytes before it.
TEST(Crc32Test, IncrementalMatchesReferenceAtEverySplit) {
  const Bytes data = random_bytes(67, 99);
  const std::uint32_t want = reference_crc32(data);
  const ByteSpan all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    const ByteSpan head = all.first(split);
    const ByteSpan tail = all.subspan(split);
    Crc32 spans;
    spans.update(head);
    spans.update(tail);
    EXPECT_EQ(spans.value(), want) << "split=" << split;

    Crc32 bytes_then_span;
    for (const Byte b : head) bytes_then_span.update(b);
    bytes_then_span.update(tail);
    EXPECT_EQ(bytes_then_span.value(), want) << "split=" << split;

    Crc32 span_then_bytes;
    span_then_bytes.update(head);
    for (const Byte b : tail) span_then_bytes.update(b);
    EXPECT_EQ(span_then_bytes.value(), want) << "split=" << split;
  }
}

// --- PRNG ---------------------------------------------------------------------

TEST(PrngTest, DeterministicForSeed) {
  Prng a(42), b(42), c(43);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  bool differs = false;
  Prng a2(42);
  for (int i = 0; i < 100; ++i) differs |= (a2.next() != c.next());
  EXPECT_TRUE(differs);
}

TEST(PrngTest, NextBelowRespectsBound) {
  Prng rng(1);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.next_below(17), 17u);
  EXPECT_EQ(rng.next_below(0), 0u);
}

TEST(PrngTest, DoubleInUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(PrngTest, BoolProbabilityRoughlyHolds) {
  Prng rng(5);
  int trues = 0;
  for (int i = 0; i < 10000; ++i) trues += rng.next_bool(0.25);
  EXPECT_NEAR(trues / 10000.0, 0.25, 0.03);
}

// --- errors ---------------------------------------------------------------------

TEST(ErrorTest, CarriesCodeAndMessage) {
  try {
    AAD_FAIL(ErrorCode::kCapacityExceeded, "rom full");
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCapacityExceeded);
    EXPECT_NE(std::string(e.what()).find("rom full"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("CapacityExceeded"),
              std::string::npos);
  }
}

TEST(ErrorTest, RequireAndCheckMacros) {
  EXPECT_NO_THROW(AAD_REQUIRE(true, "fine"));
  EXPECT_THROW(AAD_REQUIRE(false, "nope"), Error);
  EXPECT_THROW(AAD_CHECK(false, "invariant"), Error);
}

TEST(ErrorTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(ErrorCode::kInternal); ++c)
    EXPECT_NE(to_string(static_cast<ErrorCode>(c)), "Unknown");
}

}  // namespace
}  // namespace aad
