// Tests for the fabric: CLB config codec roundtrips, switch-word
// consistency checking, configuration memory, config-port timing, and the
// headline property — a function executed *from the configuration plane*
// matches gate-level simulation, even when relocated to scattered frames.
#include <gtest/gtest.h>

#include "common/prng.h"
#include "fabric/clbcodec.h"
#include "fabric/config_memory.h"
#include "fabric/fabric.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"
#include "netlist_oracle.h"

namespace aad::fabric {
namespace {

using netlist::LutNetwork;
using netlist::LutSlot;
using netlist::NetKind;
using netlist::NetRef;

LutSlot random_slot(Prng& rng, std::uint32_t max_index) {
  LutSlot s;
  s.truth = static_cast<std::uint16_t>(rng.next());
  s.has_ff = rng.next_bool(0.3);
  s.is_output = rng.next_bool(0.2);
  s.output_bit = static_cast<std::uint16_t>(rng.next_below(512));
  for (auto& pin : s.pins) {
    pin.kind = static_cast<NetKind>(rng.next_below(6));
    pin.index = static_cast<std::uint32_t>(rng.next_below(max_index));
  }
  return s;
}

TEST(ClbCodec, SlotRoundtripRandomized) {
  Prng rng(321);
  for (int trial = 0; trial < 200; ++trial) {
    const LutSlot original = random_slot(rng, 1u << 20);
    Word words[kWordsPerLutSlot];
    encode_slot(original, words);
    EXPECT_EQ(decode_slot(std::span<const Word>(words, kWordsPerLutSlot)),
              original);
  }
}

TEST(ClbCodec, InvalidPinKindRejected) {
  Word words[kWordsPerLutSlot] = {0, 7u /* kind 7 invalid */, 0, 0, 0};
  EXPECT_THROW(decode_slot(std::span<const Word>(words, kWordsPerLutSlot)),
               Error);
}

TEST(ClbCodec, FrameRoundtripForMappedDesign) {
  const FrameGeometry geometry;
  const LutNetwork network =
      netlist::map_to_luts(netlist::make_ripple_adder(16));
  const auto frames = encode_frames(network, geometry);
  const LutNetwork back =
      decode_frames(frames, geometry, network.name(),
                    network.input_width(), network.output_width());
  EXPECT_EQ(back.slots(), network.slots());
}

TEST(ClbCodec, SwitchWordTamperDetected) {
  const FrameGeometry geometry;
  const LutNetwork network = netlist::map_to_luts(netlist::make_parity(16));
  auto frames = encode_frames(network, geometry);
  // Flip one switch word (words 20..23 of the first CLB are switch config).
  frames[0][20] ^= 0x1;
  EXPECT_THROW(decode_frames(frames, geometry, "x", 16, 1), Error);
}

TEST(ClbCodec, EmptyNetworkStillOneFrame) {
  const FrameGeometry geometry;
  const LutNetwork empty("none", 0, 0);
  const auto frames = encode_frames(empty, geometry);
  EXPECT_EQ(frames.size(), 1u);
}

TEST(Geometry, DerivedSizes) {
  FrameGeometry g;
  g.clb_rows = 16;
  g.frame_count = 48;
  EXPECT_EQ(g.slots_per_frame(), 64u);
  EXPECT_EQ(g.words_per_frame(), 16u * 24u);
  EXPECT_EQ(g.device_words(), 48u * 16u * 24u);
  EXPECT_EQ(g.frame_bytes(), 16u * 24u * 4u);
  EXPECT_THROW((FrameGeometry{0, 1}.validate()), Error);
  EXPECT_NE(device_id(g).find("48x16"), std::string::npos);
}

TEST(ConfigMemoryTest, FrameWriteReadAndStats) {
  const FrameGeometry geometry;
  ConfigMemory mem(geometry);
  std::vector<Word> payload(geometry.words_per_frame());
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<Word>(i * 3 + 1);
  mem.write_frame(5, payload);
  const auto back = mem.read_frame(5);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), back.begin()));
  EXPECT_EQ(mem.frame_writes(), 1u);
  EXPECT_EQ(mem.words_written(), payload.size());
  // Other frames untouched.
  for (Word w : mem.read_frame(4)) EXPECT_EQ(w, 0u);
}

TEST(ConfigMemoryTest, BoundsAndSizesEnforced) {
  const FrameGeometry geometry;
  ConfigMemory mem(geometry);
  std::vector<Word> wrong(geometry.words_per_frame() - 1);
  EXPECT_THROW(mem.write_frame(0, wrong), Error);
  std::vector<Word> ok(geometry.words_per_frame());
  EXPECT_THROW(mem.write_frame(geometry.frame_count, ok), Error);
  EXPECT_THROW(mem.read_frame(geometry.frame_count), Error);
  std::vector<Word> small(geometry.device_words() - 1);
  EXPECT_THROW(mem.write_full(small), Error);
}

TEST(ConfigPort, PartialBeatsFullProportionally) {
  const FrameGeometry geometry;
  const ConfigPortModel port;
  const auto one = port.frame_time(geometry);
  const auto full = port.full_time(geometry);
  // Full configuration must cost roughly frame_count partial frames.
  const double ratio = full.nanoseconds() / one.nanoseconds();
  EXPECT_GT(ratio, geometry.frame_count * 0.8);
  EXPECT_LT(ratio, geometry.frame_count * 1.3);
}

TEST(ConfigPort, WiderPortIsFaster) {
  const FrameGeometry geometry;
  ConfigPortModel narrow;
  narrow.width_bits = 8;
  ConfigPortModel wide;
  wide.width_bits = 32;
  EXPECT_LT(wide.frame_time(geometry), narrow.frame_time(geometry));
}

// --- executing from the configuration plane -----------------------------------

TEST(FabricExecute, AdderFromConfigPlaneMatchesGolden) {
  Fabric fabric;
  const netlist::Netlist nl = netlist::make_ripple_adder(16);
  const LutNetwork mapped = netlist::map_to_luts(nl);
  const auto frames = encode_frames(mapped, fabric.geometry());

  // Configure into contiguous frames 3..
  std::vector<FrameIndex> targets;
  for (std::size_t i = 0; i < frames.size(); ++i)
    targets.push_back(static_cast<FrameIndex>(3 + i));
  for (std::size_t i = 0; i < frames.size(); ++i)
    fabric.configure_frame(targets[i], frames[i]);

  const LutNetwork extracted = fabric.extract_network(
      targets, "add16", mapped.input_width(), mapped.output_width());
  EXPECT_EQ(extracted.slots(), mapped.slots());
}

TEST(FabricExecute, RelocationToScatteredFramesPreservesFunction) {
  Fabric fabric;
  const netlist::Netlist nl = netlist::make_comparator(16);
  const LutNetwork mapped = netlist::map_to_luts(nl);
  const auto frames = encode_frames(mapped, fabric.geometry());
  ASSERT_GE(fabric.geometry().frame_count, frames.size() * 7);

  // Non-contiguous placement: frames 40, 11, 27, ... order matters, not
  // adjacency — this is the paper's §2.5 claim made executable.
  std::vector<FrameIndex> scattered;
  const FrameIndex pool[] = {40, 11, 27, 5, 33, 2, 19, 45};
  for (std::size_t i = 0; i < frames.size(); ++i) {
    scattered.push_back(pool[i % 8]);
    fabric.configure_frame(scattered.back(), frames[i]);
  }

  const LutNetwork extracted = fabric.extract_network(
      scattered, "cmp16", mapped.input_width(), mapped.output_width());
  netlist::LutExecutor from_plane(extracted);
  netlist::Simulator golden(nl);
  Prng rng(4242);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<bool> in(32);
    for (auto&& b : in) b = rng.next_bool(0.5);
    EXPECT_EQ(from_plane.step(in), golden.step(in));
  }
}

TEST(FabricExecute, SequentialKernelFromPlane) {
  Fabric fabric;
  const netlist::Netlist nl = netlist::make_crc32_datapath();
  const LutNetwork mapped = netlist::map_to_luts(nl);
  const auto frames = encode_frames(mapped, fabric.geometry());
  std::vector<FrameIndex> targets;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    targets.push_back(static_cast<FrameIndex>(i));
    fabric.configure_frame(targets.back(), frames[i]);
  }
  const LutNetwork extracted =
      fabric.extract_network(targets, "crc32", 9, 32);
  netlist::LutExecutor ex(extracted);
  const std::string msg = "123456789";
  for (char ch : msg) {
    std::vector<bool> in(9, false);
    for (int i = 0; i < 8; ++i) in[static_cast<std::size_t>(i)] = (ch >> i) & 1;
    in[8] = true;
    ex.step(in);
  }
  const auto out = ex.step(std::vector<bool>(9, false));
  std::uint32_t crc = 0;
  for (int i = 0; i < 32; ++i)
    if (out[static_cast<std::size_t>(i)]) crc |= 1u << i;
  EXPECT_EQ(crc, 0xCBF43926u);
}

TEST(FabricExecute, ReconfigurationReplacesFunction) {
  Fabric fabric;
  const auto add = netlist::map_to_luts(netlist::make_ripple_adder(8));
  const auto par = netlist::map_to_luts(netlist::make_parity(16));
  const auto add_frames = encode_frames(add, fabric.geometry());
  const auto par_frames = encode_frames(par, fabric.geometry());

  std::vector<FrameIndex> targets;
  for (std::size_t i = 0; i < add_frames.size(); ++i) {
    targets.push_back(static_cast<FrameIndex>(i));
    fabric.configure_frame(targets.back(), add_frames[i]);
  }
  // Swap in parity over the same frames (partial reconfiguration).
  std::vector<FrameIndex> par_targets;
  for (std::size_t i = 0; i < par_frames.size(); ++i) {
    par_targets.push_back(static_cast<FrameIndex>(i));
    fabric.configure_frame(par_targets.back(), par_frames[i]);
  }
  const auto extracted = fabric.extract_network(par_targets, "parity16",
                                                par.input_width(),
                                                par.output_width());
  EXPECT_EQ(extracted.slots(), par.slots());
  EXPECT_EQ(fabric.memory().frame_writes(),
            add_frames.size() + par_frames.size());
}

TEST(FabricExecute, EraseClearsPlane) {
  Fabric fabric;
  const auto add = netlist::map_to_luts(netlist::make_ripple_adder(8));
  const auto frames = encode_frames(add, fabric.geometry());
  fabric.configure_frame(0, frames[0]);
  fabric.erase();
  for (Word w : fabric.memory().read_frame(0)) EXPECT_EQ(w, 0u);
}

}  // namespace
}  // namespace aad::fabric
