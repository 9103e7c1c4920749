// Tests for the AADB bitstream container, the behavioral synthesizer and
// content statistics.
#include <gtest/gtest.h>

#include "bitstream/bitstream.h"
#include "bitstream/stats.h"
#include "bitstream/synth.h"
#include "common/prng.h"
#include "fabric/clbcodec.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"

namespace aad::bitstream {
namespace {

Bitstream sample_netlist_bitstream() {
  const fabric::FrameGeometry geometry;
  return from_network(netlist::map_to_luts(netlist::make_ripple_adder(16)),
                      geometry);
}

TEST(BitstreamFormat, SerializeParseRoundtrip) {
  const Bitstream original = sample_netlist_bitstream();
  const Bytes wire = serialize(original);
  const Bitstream back = parse(wire);
  EXPECT_EQ(back, original);
  EXPECT_EQ(wire.size(), original.byte_size());
}

TEST(BitstreamFormat, CrcCorruptionDetected) {
  const Bitstream original = sample_netlist_bitstream();
  Bytes wire = serialize(original);
  wire[wire.size() / 2] ^= 0x40;
  EXPECT_THROW(parse(wire), Error);
}

TEST(BitstreamFormat, TruncationDetected) {
  const Bitstream original = sample_netlist_bitstream();
  Bytes wire = serialize(original);
  wire.resize(wire.size() - 5);
  EXPECT_THROW(parse(wire), Error);
  EXPECT_THROW(parse(ByteSpan(wire.data(), 3)), Error);
}

TEST(BitstreamFormat, BadMagicRejected) {
  const Bitstream original = sample_netlist_bitstream();
  Bytes wire = serialize(original);
  wire[0] ^= 0xFF;
  EXPECT_THROW(parse(wire), Error);
}

TEST(BitstreamFormat, NameTooLongRejected) {
  Bitstream bs = sample_netlist_bitstream();
  bs.info.name = std::string(40, 'x');
  EXPECT_THROW(serialize(bs), Error);
}

TEST(BitstreamFormat, HeaderFieldsSurvive) {
  Bitstream bs = sample_netlist_bitstream();
  bs.info.kind = FunctionKind::kBehavioral;
  bs.info.kernel_id = 77;
  const Bitstream back = parse(serialize(bs));
  EXPECT_EQ(back.info.kind, FunctionKind::kBehavioral);
  EXPECT_EQ(back.info.kernel_id, 77u);
  EXPECT_EQ(back.info.name, bs.info.name);
  EXPECT_EQ(back.info.input_width, bs.info.input_width);
}

TEST(BitstreamFormat, PackFramePayloadsLayout) {
  const Bitstream bs = sample_netlist_bitstream();
  const Bytes payload = pack_frame_payloads(bs);
  EXPECT_EQ(payload.size(),
            bs.frame_count() * bs.info.geometry.frame_bytes());
  // First word of the payload must equal the first config word.
  const auto words = bytes_to_words(ByteSpan(payload.data(), 4));
  EXPECT_EQ(words[0], bs.frames[0][0]);
  EXPECT_THROW(bytes_to_words(ByteSpan(payload.data(), 3)), Error);
}

// --- behavioral synthesis ------------------------------------------------------

TEST(SynthTest, ProducesRequestedFootprint) {
  const fabric::FrameGeometry geometry;
  SynthParams params;
  params.frames = 6;
  const Bitstream bs =
      synthesize_behavioral("fake", 42, 64, 64, geometry, params);
  EXPECT_EQ(bs.frame_count(), 6u);
  EXPECT_EQ(bs.info.kind, FunctionKind::kBehavioral);
  EXPECT_EQ(bs.info.kernel_id, 42u);
}

TEST(SynthTest, OutputDecodesAndValidates) {
  // The synthesized stream must be structurally legal — decode_frames
  // checks the switch words, validate() pin references and output coverage.
  const fabric::FrameGeometry geometry;
  SynthParams params;
  params.frames = 4;
  const Bitstream bs =
      synthesize_behavioral("fake", 7, 32, 48, geometry, params);
  EXPECT_NO_THROW(
      fabric::decode_frames(bs.frames, geometry, "fake", 32, 48).validate());
}

TEST(SynthTest, DeterministicForSeed) {
  const fabric::FrameGeometry geometry;
  SynthParams params;
  params.frames = 3;
  const Bitstream a = synthesize_behavioral("k", 9, 16, 16, geometry, params);
  const Bitstream b = synthesize_behavioral("k", 9, 16, 16, geometry, params);
  EXPECT_EQ(a, b);
  params.seed = 2;
  const Bitstream c = synthesize_behavioral("k", 9, 16, 16, geometry, params);
  EXPECT_NE(a, c);
}

TEST(SynthTest, FootprintTooSmallForOutputsRejected) {
  const fabric::FrameGeometry geometry;  // 64 slots per frame
  SynthParams params;
  params.frames = 1;
  EXPECT_THROW(
      synthesize_behavioral("k", 1, 8, /*output_width=*/65, geometry, params),
      Error);
}

TEST(SynthTest, DensityControlsSparsity) {
  const fabric::FrameGeometry geometry;
  SynthParams dense;
  dense.frames = 8;
  dense.density = 0.95;
  SynthParams sparse = dense;
  sparse.density = 0.25;
  const auto d = analyze(
      synthesize_behavioral("d", 1, 32, 32, geometry, dense));
  const auto s = analyze(
      synthesize_behavioral("s", 1, 32, 32, geometry, sparse));
  EXPECT_GT(s.zero_word_fraction, d.zero_word_fraction);
}

// --- stats ----------------------------------------------------------------------

TEST(StatsTest, RandomDataHasHighEntropy) {
  Prng rng(1);
  Bytes data(4096);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  const auto s = analyze_bytes(data);
  EXPECT_GT(s.byte_entropy_bits, 7.5);
  EXPECT_LT(s.zero_byte_fraction, 0.05);
}

TEST(StatsTest, ZeroDataHasZeroEntropy) {
  const Bytes data(4096, 0);
  const auto s = analyze_bytes(data);
  EXPECT_DOUBLE_EQ(s.byte_entropy_bits, 0.0);
  EXPECT_DOUBLE_EQ(s.zero_byte_fraction, 1.0);
}

TEST(StatsTest, RealBitstreamIsStructured) {
  const auto s = analyze(sample_netlist_bitstream());
  // Config planes are sparse and low-entropy relative to random data.
  EXPECT_GT(s.zero_byte_fraction, 0.2);
  EXPECT_LT(s.byte_entropy_bits, 6.0);
  EXPECT_FALSE(to_string(s).empty());
}

TEST(StatsTest, SynthStreamsShowInterframeSimilarity) {
  const fabric::FrameGeometry geometry;
  SynthParams params;
  params.frames = 8;
  const auto s =
      analyze(synthesize_behavioral("k", 3, 64, 64, geometry, params));
  // The slot layout repeats frame to frame, so some same-offset words match.
  EXPECT_GT(s.interframe_similarity, 0.0);
}

}  // namespace
}  // namespace aad::bitstream
