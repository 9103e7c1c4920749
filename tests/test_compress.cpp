// Tests for the compression codecs: parameterized roundtrips across codecs
// and data shapes, a seeded roundtrip sweep over Fibonacci sizes, the
// token edge cases each decoder must get right, corruption handling, and
// the ratio ordering properties the experiments rely on.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

#include "bitstream/bitstream.h"
#include "bitstream/synth.h"
#include "common/prng.h"
#include "compress/codec.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"

namespace aad::compress {
namespace {

constexpr std::size_t kFrameBytes = 1536;  // default geometry frame size

enum class Shape {
  kEmpty,
  kOneByte,
  kAllZero,
  kAllSame,
  kRandom,
  kSparse,
  kPeriodic,   // frame-periodic (what FrameDelta targets)
  kText,
  kBitstream,  // a real mapped-netlist configuration stream
};

const char* shape_name(Shape s) {
  switch (s) {
    case Shape::kEmpty: return "empty";
    case Shape::kOneByte: return "one";
    case Shape::kAllZero: return "zeros";
    case Shape::kAllSame: return "same";
    case Shape::kRandom: return "random";
    case Shape::kSparse: return "sparse";
    case Shape::kPeriodic: return "periodic";
    case Shape::kText: return "text";
    case Shape::kBitstream: return "bitstream";
  }
  return "?";
}

Bytes make_shape(Shape shape) {
  Prng rng(static_cast<std::uint64_t>(shape) + 1);
  switch (shape) {
    case Shape::kEmpty:
      return {};
    case Shape::kOneByte:
      return {0xA7};
    case Shape::kAllZero:
      return Bytes(8000, 0);
    case Shape::kAllSame:
      return Bytes(5000, 0x5A);
    case Shape::kRandom: {
      Bytes b(6000);
      for (auto& x : b) x = static_cast<Byte>(rng.next());
      return b;
    }
    case Shape::kSparse: {
      Bytes b(9000, 0);
      for (int i = 0; i < 300; ++i)
        b[rng.next_below(b.size())] = static_cast<Byte>(rng.next() | 1);
      return b;
    }
    case Shape::kPeriodic: {
      Bytes frame(kFrameBytes);
      for (auto& x : frame) x = static_cast<Byte>(rng.next());
      Bytes b;
      for (int f = 0; f < 6; ++f) {
        Bytes copy = frame;
        // a few per-frame differences
        for (int d = 0; d < 10; ++d)
          copy[rng.next_below(copy.size())] ^= 0x3;
        b.insert(b.end(), copy.begin(), copy.end());
      }
      return b;
    }
    case Shape::kText: {
      const std::string t =
          "the quick brown fox jumps over the lazy dog; "
          "the quick brown fox jumps over the lazy dog again and again. ";
      Bytes b;
      while (b.size() < 7000)
        b.insert(b.end(), t.begin(), t.end());
      return b;
    }
    case Shape::kBitstream: {
      const fabric::FrameGeometry geometry;
      const auto bs = bitstream::from_network(
          netlist::map_to_luts(netlist::make_crc32_datapath()), geometry);
      return bitstream::pack_frame_payloads(bs);
    }
  }
  return {};
}

class CodecRoundtrip
    : public ::testing::TestWithParam<std::tuple<CodecId, Shape>> {};

TEST_P(CodecRoundtrip, OneShotRoundtrip) {
  const auto [id, shape] = GetParam();
  const auto codec = make_codec(id, kFrameBytes);
  const Bytes raw = make_shape(shape);
  const Bytes compressed = codec->compress(raw);
  EXPECT_EQ(codec->decompress(compressed), raw);
}

INSTANTIATE_TEST_SUITE_P(
    AllCodecsAllShapes, CodecRoundtrip,
    ::testing::Combine(
        ::testing::Values(CodecId::kNull, CodecId::kRle, CodecId::kLzss,
                          CodecId::kHuffman, CodecId::kGolomb,
                          CodecId::kFrameDelta, CodecId::kDeltaGolomb),
        ::testing::Values(Shape::kEmpty, Shape::kOneByte, Shape::kAllZero,
                          Shape::kAllSame, Shape::kRandom, Shape::kSparse,
                          Shape::kPeriodic, Shape::kText, Shape::kBitstream)),
    [](const ::testing::TestParamInfo<std::tuple<CodecId, Shape>>& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_" + shape_name(std::get<1>(info.param));
      std::erase(name, '-');  // gtest param names must be alphanumeric
      return name;
    });

// --- seeded roundtrip sweep ------------------------------------------------------

/// The Fibonacci numbers F_0..F_n up to `limit` (cryptsuite's `fibonacci`):
/// sizes scattered from 0 to several frames, almost none a multiple of the
/// frame size.
std::vector<std::size_t> fibonacci_sizes(std::size_t limit) {
  std::vector<std::size_t> sizes;
  for (std::size_t a = 0, b = 1; a <= limit; b += a, a = b - a)
    sizes.push_back(a);
  return sizes;
}

/// Seeded content of `size` bytes in one of four styles: random literals,
/// sparse non-zero bytes, a repeated frame with a few per-frame flips (what
/// the delta codecs target), and short-period repetition (long runs and
/// overlapping LZSS matches).
Bytes sweep_content(std::size_t size, unsigned style, std::uint64_t seed) {
  Prng rng(seed);
  Bytes b(size, 0);
  for (std::size_t i = 0; i < size; ++i) {
    switch (style) {
      case 0:
        b[i] = static_cast<Byte>(rng.next());
        break;
      case 1:
        if (rng.next_below(16) == 0) b[i] = static_cast<Byte>(rng.next() | 1);
        break;
      case 2:
        b[i] = i < kFrameBytes ? static_cast<Byte>(rng.next())
                               : b[i - kFrameBytes];
        if (rng.next_below(200) == 0) b[i] ^= 0x21;
        break;
      default:
        b[i] = static_cast<Byte>("aab\0\0\0c"[i % 7]);
        break;
    }
  }
  return b;
}

TEST(CodecSweep, EveryCodecRoundtripsFibonacciSizes) {
  std::vector<std::size_t> sizes = fibonacci_sizes(5 * kFrameBytes);
  for (const std::size_t edge : {kFrameBytes - 1, kFrameBytes, kFrameBytes + 1,
                                 2 * kFrameBytes, 3 * kFrameBytes + 7})
    sizes.push_back(edge);
  for (const CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    for (const std::size_t size : sizes) {
      for (unsigned style = 0; style < 4; ++style) {
        const Bytes raw = sweep_content(size, style, size * 4 + style);
        const Bytes compressed = codec->compress(raw);
        ASSERT_EQ(raw_size(compressed), size);
        Bytes out(size, 0xEE);
        codec->decompress_into(compressed, out);
        ASSERT_EQ(out, raw) << to_string(id) << " size=" << size
                            << " style=" << style;
      }
    }
  }
}

TEST(CodecSweep, OutputSizeMustMatchTheHeader) {
  // The caller sizes the output (the engine from its ROM record), so a
  // header that promises more or fewer bytes is corruption.
  const Bytes raw = sweep_content(2 * kFrameBytes + 5, 2, 11);
  for (const CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress(raw);
    for (const std::size_t size : {raw.size() - 1, raw.size() + 1}) {
      Bytes out(size);
      try {
        codec->decompress_into(compressed, out);
        ADD_FAILURE() << to_string(id) << " decoded into " << size;
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << to_string(id);
      }
    }
  }
}

// --- token edge cases -------------------------------------------------------------

/// A container: the u32 raw_size header, then `body`.
Bytes container(std::uint32_t raw, std::initializer_list<Byte> body) {
  Bytes c = {static_cast<Byte>(raw), static_cast<Byte>(raw >> 8),
             static_cast<Byte>(raw >> 16), static_cast<Byte>(raw >> 24)};
  c.insert(c.end(), body.begin(), body.end());
  return c;
}

TEST(CodecEdges, RleRunsAtTheOpLimits) {
  // A repeat op covers 3..130 bytes and a literal op 1..128: a 128- or
  // 130-byte run is one op, a 131-byte run is a full op plus a literal.
  const auto rle = make_codec(CodecId::kRle);
  for (const auto& [run, ops_bytes] :
       {std::pair<std::size_t, std::size_t>{128, 2}, {130, 2}, {131, 4}}) {
    const Bytes raw(run, 0x6B);
    const Bytes compressed = rle->compress(raw);
    EXPECT_EQ(compressed.size(), 4 + ops_bytes) << "run=" << run;
    EXPECT_EQ(rle->decompress(compressed), raw) << "run=" << run;
  }
  // 128 distinct bytes are one full literal op; 129 need a second.
  Bytes literal(129);
  for (std::size_t i = 0; i < literal.size(); ++i)
    literal[i] = static_cast<Byte>(i);
  for (const std::size_t n : {std::size_t{128}, std::size_t{129}}) {
    const Bytes raw(literal.begin(),
                    literal.begin() + static_cast<std::ptrdiff_t>(n));
    EXPECT_EQ(rle->decompress(rle->compress(raw)), raw) << "literal=" << n;
  }
  // The frame-delta codec decodes the same ops.
  const auto delta = make_codec(CodecId::kFrameDelta, kFrameBytes);
  for (const std::size_t run : {128, 130, 131}) {
    const Bytes raw(run, 0x6B);
    EXPECT_EQ(delta->decompress(delta->compress(raw)), raw) << "run=" << run;
  }
}

TEST(CodecEdges, RleRunPastTheOutputIsRejected) {
  const auto rle = make_codec(CodecId::kRle);
  // Five bytes promised; a 3-byte repeat then a 4-byte repeat overrun.
  EXPECT_THROW(rle->decompress(container(5, {0x80, 0x11, 0x81, 0x22})),
               Error);
  EXPECT_EQ(rle->decompress(container(7, {0x80, 0x11, 0x81, 0x22})),
            (Bytes{0x11, 0x11, 0x11, 0x22, 0x22, 0x22, 0x22}));
}

TEST(CodecEdges, LzssOverlappingMatchCopiesItsOwnOutput) {
  // Literal 'a', literal 'b', then a match at offset 2 of length 18: the
  // match reads bytes it is itself writing.
  const auto lzss = make_codec(CodecId::kLzss);
  const Bytes compressed = container(20, {0xC0, 'a', 'b', 0x00, 0x1F});
  Bytes expect;
  for (int i = 0; i < 10; ++i) expect.insert(expect.end(), {'a', 'b'});
  EXPECT_EQ(lzss->decompress(compressed), expect);
  // Offset 1: a run of one byte.
  EXPECT_EQ(lzss->decompress(container(19, {0x80, 'z', 0x00, 0x0F})),
            Bytes(19, 'z'));
  // The encoder emits overlapping matches for short-period data too.
  const Bytes periodic = sweep_content(3000, 3, 0);
  EXPECT_EQ(lzss->decompress(lzss->compress(periodic)), periodic);
}

TEST(CodecEdges, LzssBackReferenceSpansTheWholeWindow) {
  // 4096 literals, then a match 4096 bytes back: the farthest the 12-bit
  // offset reaches.
  Prng rng(4096);
  Bytes window(4096);
  for (auto& b : window) b = static_cast<Byte>(rng.next());
  Bytes compressed = container(4096 + 18, {});
  for (std::size_t i = 0; i < window.size(); ++i) {
    if (i % 8 == 0) compressed.push_back(0xFF);
    compressed.push_back(window[i]);
  }
  compressed.insert(compressed.end(), {0x00, 0xFF, 0xFF});
  Bytes expect = window;
  expect.insert(expect.end(), window.begin(), window.begin() + 18);
  const auto lzss = make_codec(CodecId::kLzss);
  EXPECT_EQ(lzss->decompress(compressed), expect);

  // The encoder reaches that far as well.
  Bytes raw = window;
  raw.insert(raw.end(), window.begin(), window.begin() + 100);
  const Bytes encoded = lzss->compress(raw);
  EXPECT_LT(encoded.size(), lzss->compress(window).size() + 20);
  EXPECT_EQ(lzss->decompress(encoded), raw);
}

TEST(CodecEdges, LzssCorruptTokensAreRejected) {
  const auto lzss = make_codec(CodecId::kLzss);
  // A match 2 bytes back after only 1 byte of output.
  EXPECT_THROW(lzss->decompress(container(4, {0x80, 'a', 0x00, 0x10})),
               Error);
  // A match of 18 bytes where only 3 remain.
  EXPECT_THROW(lzss->decompress(container(4, {0x80, 'a', 0x00, 0x0F})),
               Error);
  // Flags promise a literal the stream does not hold.
  EXPECT_THROW(lzss->decompress(container(2, {0xC0, 'a'})), Error);
}

TEST(CodecEdges, ZeroRunEndsTheStreamWithoutALiteral) {
  // The final token of a stream ending in zeros is a bare run.
  Bytes raw(3 * kFrameBytes + 40, 0);
  raw[0] = 0x5D;
  raw[kFrameBytes + 3] = 0x07;
  for (const CodecId id : {CodecId::kGolomb, CodecId::kDeltaGolomb}) {
    const auto codec = make_codec(id, kFrameBytes);
    EXPECT_EQ(codec->decompress(codec->compress(raw)), raw) << to_string(id);
    // All zeros: the whole stream is one run.
    const Bytes zeros(2 * kFrameBytes + 1, 0);
    EXPECT_EQ(codec->decompress(codec->compress(zeros)), zeros)
        << to_string(id);
  }
  // Golomb k = 0: rice(2) = 110 before literal 0x41, then a closing run
  // rice(1) = 10 — 110 01000001 10, zero-padded.
  const auto golomb = make_codec(CodecId::kGolomb);
  EXPECT_EQ(golomb->decompress(container(4, {0x00, 0xC8, 0x30})),
            (Bytes{0x00, 0x00, 0x41, 0x00}));
  // The same stream promising one byte: its first run overruns that.
  EXPECT_THROW(golomb->decompress(container(1, {0x00, 0xC8, 0x30})), Error);
}

// --- ratio properties -----------------------------------------------------------

double ratio(CodecId id, const Bytes& raw) {
  const auto codec = make_codec(id, kFrameBytes);
  return static_cast<double>(codec->compress(raw).size()) /
         static_cast<double>(raw.size());
}

TEST(CodecRatios, RleCollapsesRuns) {
  EXPECT_LT(ratio(CodecId::kRle, make_shape(Shape::kAllZero)), 0.05);
  EXPECT_LT(ratio(CodecId::kRle, make_shape(Shape::kAllSame)), 0.05);
}

TEST(CodecRatios, GolombExcelsOnSparse) {
  const Bytes sparse = make_shape(Shape::kSparse);
  EXPECT_LT(ratio(CodecId::kGolomb, sparse), 0.2);
  EXPECT_LT(ratio(CodecId::kGolomb, sparse),
            ratio(CodecId::kHuffman, sparse) + 0.05);
}

TEST(CodecRatios, FrameDeltaWinsOnFramePeriodicData) {
  const Bytes periodic = make_shape(Shape::kPeriodic);
  EXPECT_LT(ratio(CodecId::kFrameDelta, periodic),
            ratio(CodecId::kRle, periodic));
  EXPECT_LT(ratio(CodecId::kFrameDelta, periodic), 0.5);
}

TEST(CodecRatios, DeltaGolombBeatsPlainGolombOnPeriodicData) {
  // The delta transform always helps the sparse coder on frame-periodic
  // content.  (It does NOT always beat delta+RLE: the Rice back end pays
  // k+1 bits of overhead per literal, so the dense first frame favours
  // RLE's 1-control-per-128-literals — see the next test for the regime
  // where the composition wins both parents.)
  const Bytes periodic = make_shape(Shape::kPeriodic);
  EXPECT_LT(ratio(CodecId::kDeltaGolomb, periodic),
            ratio(CodecId::kGolomb, periodic));
}

TEST(CodecRatios, DeltaGolombWinsBothParentsOnSparseDeltas) {
  // Sparse base frame + few per-frame diffs: delta runs far exceed RLE's
  // 130-byte repeat cap, so Rice-coded run lengths dominate.
  Prng rng(99);
  Bytes frame(kFrameBytes, 0);
  for (int i = 0; i < 20; ++i)
    frame[rng.next_below(frame.size())] = static_cast<Byte>(rng.next() | 1);
  Bytes data;
  for (int f = 0; f < 8; ++f) {
    Bytes copy = frame;
    for (int d = 0; d < 2; ++d)
      copy[rng.next_below(copy.size())] ^= 0x5;
    data.insert(data.end(), copy.begin(), copy.end());
  }
  EXPECT_LT(ratio(CodecId::kDeltaGolomb, data),
            ratio(CodecId::kFrameDelta, data));
  EXPECT_LT(ratio(CodecId::kDeltaGolomb, data),
            ratio(CodecId::kGolomb, data));
}

TEST(CodecRatios, LzssCompressesText) {
  EXPECT_LT(ratio(CodecId::kLzss, make_shape(Shape::kText)), 0.5);
}

TEST(CodecRatios, RealBitstreamCompresses) {
  const Bytes bs = make_shape(Shape::kBitstream);
  for (CodecId id : {CodecId::kRle, CodecId::kLzss, CodecId::kHuffman,
                     CodecId::kGolomb, CodecId::kFrameDelta}) {
    EXPECT_LT(ratio(id, bs), 0.9) << to_string(id);
  }
}

TEST(CodecRatios, NothingBeatsEntropyOnRandom) {
  const Bytes rnd = make_shape(Shape::kRandom);
  // No codec should blow up random data by much more than framing overhead.
  for (CodecId id : all_codec_ids())
    EXPECT_LT(ratio(id, rnd), 1.35) << to_string(id);
}

// --- corruption handling ---------------------------------------------------------

TEST(CodecCorruption, TruncatedStreamsThrow) {
  for (CodecId id : {CodecId::kRle, CodecId::kLzss, CodecId::kHuffman,
                     CodecId::kGolomb, CodecId::kFrameDelta,
                     CodecId::kDeltaGolomb}) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes raw = make_shape(Shape::kText);
    Bytes compressed = codec->compress(raw);
    compressed.resize(compressed.size() / 2);
    EXPECT_THROW(codec->decompress(compressed), Error)
        << to_string(id);
  }
}

TEST(CodecCorruption, NullLengthMismatchThrows) {
  const auto codec = make_codec(CodecId::kNull);
  Bytes compressed = codec->compress(make_shape(Shape::kOneByte));
  compressed.push_back(0x00);  // excess payload
  EXPECT_THROW(codec->decompress(compressed), Error);
}

TEST(CodecFactory, FrameDeltaNeedsFrameBytes) {
  EXPECT_THROW(make_codec(CodecId::kFrameDelta, 0), Error);
  EXPECT_NO_THROW(make_codec(CodecId::kFrameDelta, 64));
}

TEST(CodecFactory, AllIdsConstruct) {
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, 64);
    EXPECT_EQ(codec->id(), id);
    EXPECT_GT(decompress_cycles_per_byte(id), 0.0);
  }
}

TEST(CodecModel, EntropyCodersCostMoreThanCopies) {
  EXPECT_LT(decompress_cycles_per_byte(CodecId::kNull),
            decompress_cycles_per_byte(CodecId::kRle));
  EXPECT_LT(decompress_cycles_per_byte(CodecId::kRle),
            decompress_cycles_per_byte(CodecId::kHuffman));
}

// --- container edge cases -------------------------------------------------------

TEST(CodecOneShot, EmptyCompressedInputThrows) {
  // The 4-byte raw_size header is mandatory: a zero-length compressed
  // stream is corruption, not an empty payload.
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    EXPECT_THROW(codec->decompress(Bytes{}), Error) << to_string(id);
  }
}

TEST(CodecOneShot, RawSizeZeroDecodesZeroBytes) {
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress({});
    EXPECT_EQ(raw_size(compressed), 0u) << to_string(id);
    EXPECT_TRUE(codec->decompress(compressed).empty()) << to_string(id);
    codec->decompress_into(compressed, std::span<Byte>{});
    Byte one;
    EXPECT_THROW(codec->decompress_into(compressed, std::span<Byte>(&one, 1)),
                 Error)
        << to_string(id);
  }
}

TEST(CodecOneShot, SingleFramePayloadDecodes) {
  // Exactly one frame: the frame-delta codecs have no previous frame to
  // reference, so the first frame must decode standalone.
  Prng rng(97);
  Bytes raw(kFrameBytes);
  for (auto& b : raw) b = static_cast<Byte>(rng.next());
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    Bytes out(kFrameBytes);
    codec->decompress_into(codec->compress(raw), out);
    EXPECT_EQ(out, raw) << to_string(id);
  }
}

TEST(CodecOneShot, DeltaDecoderRebuildsItsOwnHistory) {
  // Two identical frames make frame 2 a pure copy-previous delta.  Every
  // decode over the same bytes, into a buffer holding stale content, must
  // rebuild frame 1 from the stream before frame 2 reads it.
  const Bytes raw(2 * kFrameBytes, 0x3C);
  for (CodecId id : {CodecId::kFrameDelta, CodecId::kDeltaGolomb}) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress(raw);
    Bytes out(raw.size(), 0xA5);
    for (int round = 0; round < 2; ++round) {
      codec->decompress_into(compressed, out);
      EXPECT_EQ(out, raw) << to_string(id) << " round=" << round;
      std::fill(out.begin(), out.end(), Byte{0x5A});
    }
  }
}

// --- the kAuto sentinel ---------------------------------------------------------

TEST(CodecFactory, AutoIsASelectionPolicyNotACodec) {
  EXPECT_THROW(make_codec(CodecId::kAuto, kFrameBytes), Error);
  for (CodecId id : all_codec_ids()) EXPECT_NE(id, CodecId::kAuto);
}

TEST(CodecFactory, CodecFromStringRoundtripsEveryName) {
  for (CodecId id : all_codec_ids())
    EXPECT_EQ(codec_from_string(to_string(id)), id);
  EXPECT_EQ(codec_from_string("auto"), CodecId::kAuto);
  EXPECT_THROW(codec_from_string("zstd"), Error);
  EXPECT_THROW(codec_from_string(""), Error);
}

}  // namespace
}  // namespace aad::compress
