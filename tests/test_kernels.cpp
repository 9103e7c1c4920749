// Tests for the kernel catalog: completeness, footprint sanity, bitstream
// buildability for every kernel, and cycle/host models' monotonicity.
#include <gtest/gtest.h>

#include <set>

#include "algorithms/kernels.h"
#include "bitstream/stats.h"

namespace aad::algorithms {
namespace {

TEST(CatalogTest, HasBothKindsAndUniqueIds) {
  const auto& all = catalog();
  EXPECT_GE(all.size(), 15u);
  std::set<std::uint32_t> ids;
  std::set<std::string> names;
  unsigned netlist_count = 0, behavioral_count = 0;
  for (const auto& s : all) {
    EXPECT_TRUE(ids.insert(function_id(s.id)).second) << s.name;
    EXPECT_TRUE(names.insert(s.name).second) << s.name;
    if (s.kind == bitstream::FunctionKind::kNetlist) {
      ++netlist_count;
    } else {
      ++behavioral_count;
    }
    EXPECT_NE(s.software, nullptr) << s.name;
    EXPECT_NE(s.host_time, nullptr) << s.name;
    EXPECT_NE(s.make_bitstream, nullptr) << s.name;
    EXPECT_NE(s.make_input, nullptr) << s.name;
    // The MCU executes a behavioral function from its catalog entry: the
    // bytes from `software`, the fabric time from `fabric_cycles`.
    if (s.kind == bitstream::FunctionKind::kBehavioral) {
      EXPECT_NE(s.fabric_cycles, nullptr) << s.name;
      EXPECT_EQ(s.driver, nullptr) << s.name;
    }
  }
  EXPECT_GE(netlist_count, 8u);
  EXPECT_GE(behavioral_count, 9u);
}

TEST(CatalogTest, SpecLookup) {
  EXPECT_EQ(spec(KernelId::kAes128).name, "aes128");
  EXPECT_EQ(spec(KernelId::kCrc32).kind, bitstream::FunctionKind::kNetlist);
}

TEST(CatalogTest, EveryKernelBuildsAValidBitstream) {
  const fabric::FrameGeometry geometry;
  for (const auto& s : catalog()) {
    const auto bs = s.make_bitstream(geometry);
    EXPECT_EQ(bs.info.kernel_id, function_id(s.id)) << s.name;
    EXPECT_EQ(bs.info.kind, s.kind) << s.name;
    EXPECT_EQ(bs.info.input_width, s.input_width) << s.name;
    EXPECT_EQ(bs.info.output_width, s.output_width) << s.name;
    EXPECT_EQ(bs.frame_count(), s.nominal_frames) << s.name;
    // Must fit the device with room for at least one more small function.
    EXPECT_LT(bs.frame_count(), geometry.frame_count) << s.name;
    // Wire format roundtrip.
    EXPECT_EQ(bitstream::parse(bitstream::serialize(bs)), bs) << s.name;
  }
}

TEST(CatalogTest, SoftwareAcceptsCanonicalInput) {
  for (const auto& s : catalog()) {
    const Bytes in = s.make_input(2, 99);
    const Bytes out = s.software(in);
    EXPECT_FALSE(out.empty()) << s.name;
  }
}

TEST(CatalogTest, BehavioralCycleModelsAreMonotonic) {
  for (const auto& s : catalog()) {
    if (!s.fabric_cycles) continue;
    const Bytes small = s.make_input(1, 1);
    const Bytes big = s.make_input(8, 1);
    EXPECT_LE(s.fabric_cycles(small.size()), s.fabric_cycles(big.size()))
        << s.name;
    EXPECT_GT(s.fabric_cycles(small.size()), 0) << s.name;
  }
}

TEST(CatalogTest, HostTimesGrowWithInput) {
  for (KernelId id : {KernelId::kAes128, KernelId::kSha1, KernelId::kCrc32,
                      KernelId::kFir16}) {
    const auto& s = spec(id);
    const Bytes small = s.make_input(1, 1);
    const Bytes big = s.make_input(16, 1);
    EXPECT_LT(s.host_time(small.size()), s.host_time(big.size())) << s.name;
  }
}

TEST(CatalogTest, FootprintsCreatePressureOnDefaultDevice) {
  // The behavioral working set must exceed the device so replacement
  // actually happens in the experiments.
  const fabric::FrameGeometry geometry;
  unsigned total = 0;
  for (const auto& s : catalog())
    if (s.kind == bitstream::FunctionKind::kBehavioral)
      total += s.nominal_frames;
  EXPECT_GT(total, geometry.frame_count);
}

TEST(CatalogTest, UnknownIdThrows) {
  EXPECT_THROW(spec(static_cast<KernelId>(999)), Error);
}

TEST(CatalogTest, BehavioralStreamsLookRealistic) {
  const fabric::FrameGeometry geometry;
  const auto bs = spec(KernelId::kAes128).make_bitstream(geometry);
  const auto stats = bitstream::analyze(bs);
  // Structured, not random: entropy well below 8 bits/byte, some zero words.
  EXPECT_LT(stats.byte_entropy_bits, 6.5);
  EXPECT_GT(stats.zero_word_fraction, 0.02);
}

TEST(CatalogTest, ExactlyTheSequentialNetlistKernelsCarryADriver) {
  std::set<KernelId> driven;
  for (const auto& s : catalog())
    if (s.driver != nullptr) driven.insert(s.id);
  EXPECT_EQ(driven, (std::set<KernelId>{KernelId::kCrc32, KernelId::kLfsr32}));
}

TEST(CatalogTest, FindSpecByKernelId) {
  for (const auto& s : catalog())
    EXPECT_EQ(find_spec(function_id(s.id)), &s) << s.name;
  EXPECT_EQ(find_spec(0), nullptr);
  EXPECT_EQ(find_spec(999), nullptr);
}

}  // namespace
}  // namespace aad::algorithms
