// Tests for the compression codecs: parameterized roundtrips across codecs
// and data shapes, streaming window decompression, corruption handling, and
// the ratio ordering properties the experiments rely on.
#include <gtest/gtest.h>

#include <tuple>

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

TEST_P(CodecRoundtrip, StreamingWindowedRoundtrip) {
  const auto [id, shape] = GetParam();
  const auto codec = make_codec(id, kFrameBytes);
  const Bytes raw = make_shape(shape);
  const Bytes compressed = codec->compress(raw);

  // Pull in awkward window sizes (prime, tiny, frame-sized, and sizes that
  // cross the frame-delta history wrap partway through a read) to stress
  // the incremental paths.
  for (const std::size_t window :
       {std::size_t{1}, std::size_t{7}, std::size_t{193}, kFrameBytes,
        kFrameBytes - 1, kFrameBytes + 1, 2 * kFrameBytes + 3}) {
    auto stream = codec->decompress_stream(compressed);
    ASSERT_EQ(stream->raw_size(), raw.size());
    Bytes got;
    Bytes buf(window);
    for (;;) {
      const std::size_t n = stream->read(buf);
      if (n == 0) break;
      got.insert(got.end(), buf.begin(),
                 buf.begin() + static_cast<std::ptrdiff_t>(n));
    }
    EXPECT_EQ(got, raw) << "window=" << window;
  }
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

TEST(CodecFactory, AllIdsConstructAndName) {
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, 64);
    EXPECT_EQ(codec->id(), id);
    EXPECT_FALSE(codec->name().empty());
    EXPECT_GT(decompress_cycles_per_byte(id), 0.0);
  }
}

TEST(CodecModel, EntropyCodersCostMoreThanCopies) {
  EXPECT_LT(decompress_cycles_per_byte(CodecId::kNull),
            decompress_cycles_per_byte(CodecId::kRle));
  EXPECT_LT(decompress_cycles_per_byte(CodecId::kRle),
            decompress_cycles_per_byte(CodecId::kHuffman));
}

// --- streaming edge cases -------------------------------------------------------

TEST(CodecStreaming, EmptyCompressedInputThrows) {
  // The 4-byte raw_size header is mandatory: a zero-length compressed
  // stream is corruption, not an empty payload.
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    EXPECT_THROW(codec->decompress(Bytes{}), Error) << to_string(id);
  }
}

TEST(CodecStreaming, RawSizeZeroStreamsZeroBytes) {
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress({});
    auto stream = codec->decompress_stream(compressed);
    EXPECT_EQ(stream->raw_size(), 0u) << to_string(id);
    Bytes buf(64);
    EXPECT_EQ(stream->read(buf), 0u) << to_string(id);
    EXPECT_EQ(stream->read(buf), 0u) << to_string(id);  // stays drained
  }
}

TEST(CodecStreaming, SingleFramePayloadDecodes) {
  // Exactly one frame: the frame-delta codecs have no previous frame to
  // reference, so the first window must decode standalone.
  Prng rng(97);
  Bytes raw(kFrameBytes);
  for (auto& b : raw) b = static_cast<Byte>(rng.next());
  for (CodecId id : all_codec_ids()) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress(raw);
    auto stream = codec->decompress_stream(compressed);
    ASSERT_EQ(stream->raw_size(), raw.size()) << to_string(id);
    Bytes buf(kFrameBytes);
    ASSERT_EQ(stream->read(buf), kFrameBytes) << to_string(id);
    EXPECT_EQ(buf, raw) << to_string(id);
    EXPECT_EQ(stream->read(buf), 0u) << to_string(id);
  }
}

TEST(CodecStreaming, DeltaStreamRebuildsItsOwnHistory) {
  // Two identical frames make frame 2 a pure copy-previous delta.  Every
  // FRESH stream over the same bytes starts with cold history and must
  // rebuild it from frame 1 — no state may leak between streams.
  const Bytes raw(2 * kFrameBytes, 0x3C);
  for (CodecId id : {CodecId::kFrameDelta, CodecId::kDeltaGolomb}) {
    const auto codec = make_codec(id, kFrameBytes);
    const Bytes compressed = codec->compress(raw);
    for (int round = 0; round < 2; ++round) {
      auto stream = codec->decompress_stream(compressed);
      Bytes got;
      Bytes buf(kFrameBytes);
      for (;;) {
        const std::size_t n = stream->read(buf);
        if (n == 0) break;
        got.insert(got.end(), buf.begin(),
                   buf.begin() + static_cast<std::ptrdiff_t>(n));
      }
      EXPECT_EQ(got, raw) << to_string(id) << " round=" << round;
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
