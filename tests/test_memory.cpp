// Tests for the two-ended ROM image, record serialization and the ROM/RAM
// timing models.  (Local RAM capacity is checked per invocation:
// tests/test_mcu.cpp.)
#include <gtest/gtest.h>

#include "common/prng.h"
#include "memory/ram.h"
#include "memory/rom.h"

namespace aad::memory {
namespace {

RomRecord sample_record(FunctionId id) {
  RomRecord rec;
  rec.function_id = id;
  rec.name = "kernel" + std::to_string(id);
  rec.kind = bitstream::FunctionKind::kBehavioral;
  rec.codec = compress::CodecId::kLzss;
  rec.raw_size = 6144;
  rec.frames = 4;
  rec.clb_rows = 16;
  rec.input_width = 64;
  rec.output_width = 64;
  rec.kernel_id = id;
  return rec;
}

Bytes payload_of(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = static_cast<Byte>(rng.next());
  return b;
}

TEST(RomRecordTest, SerializeParseRoundtrip) {
  RomRecord rec = sample_record(3);
  rec.start = 1234;
  rec.compressed_size = 999;
  rec.payload_crc = 0xDEADBEEF;
  const Bytes wire = serialize_record(rec);
  EXPECT_EQ(wire.size(), kRecordBytes);
  EXPECT_EQ(parse_record(wire), rec);
}

TEST(RomRecordTest, ChecksumCatchesTamper) {
  const Bytes wire = serialize_record(sample_record(1));
  for (std::size_t pos : {std::size_t{0}, std::size_t{10}, kRecordBytes - 1}) {
    Bytes bad = wire;
    bad[pos] ^= 0x01;
    EXPECT_THROW(parse_record(bad), Error) << "pos " << pos;
  }
}

TEST(RomImageTest, StoreAssignsLayoutFields) {
  RomImage rom(64 * 1024);
  const Bytes payload = payload_of(1000, 5);
  const RomRecord stored = rom.store(sample_record(1), payload);
  EXPECT_EQ(stored.start, 0u);
  EXPECT_EQ(stored.compressed_size, 1000u);
  const Bytes p2 = payload_of(500, 6);
  const RomRecord second = rom.store(sample_record(2), p2);
  EXPECT_EQ(second.start, 1000u);  // data grows upward
  EXPECT_EQ(rom.records().size(), 2u);
  EXPECT_EQ(rom.data_bytes(), 1500u);
  EXPECT_EQ(rom.record_bytes(), 2 * kRecordBytes);
}

TEST(RomImageTest, PayloadReadBack) {
  RomImage rom(64 * 1024);
  const Bytes payload = payload_of(777, 9);
  const RomRecord stored = rom.store(sample_record(4), payload);
  const ByteSpan back = rom.payload(stored);
  EXPECT_TRUE(std::equal(payload.begin(), payload.end(), back.begin()));
}

TEST(RomImageTest, LookupByFunctionId) {
  RomImage rom(64 * 1024);
  rom.store(sample_record(10), payload_of(100, 1));
  rom.store(sample_record(20), payload_of(100, 2));
  EXPECT_TRUE(rom.lookup(10).has_value());
  EXPECT_EQ(rom.lookup(20)->function_id, 20u);
  EXPECT_FALSE(rom.lookup(30).has_value());
}

TEST(RomImageTest, DuplicateIdRejected) {
  RomImage rom(64 * 1024);
  rom.store(sample_record(1), payload_of(10, 1));
  EXPECT_THROW(rom.store(sample_record(1), payload_of(10, 2)), Error);
}

TEST(RomImageTest, TwoEndedCollisionIsCapacityExceeded) {
  // 4 KiB ROM: data region + record slots must not meet.
  RomImage rom(4096);
  rom.store(sample_record(1), payload_of(3000, 1));
  try {
    rom.store(sample_record(2), payload_of(2000, 2));
    FAIL() << "expected capacity exception";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCapacityExceeded);
  }
  // A stream that still fits (4096 - 3000 - 2*64 = 968) is accepted.
  EXPECT_NO_THROW(rom.store(sample_record(3), payload_of(900, 3)));
  // And now even a tiny one collides with the record region.
  EXPECT_THROW(rom.store(sample_record(4), payload_of(100, 4)), Error);
}

TEST(RomImageTest, FreeBytesAccounting) {
  RomImage rom(8192);
  const std::size_t before = rom.free_bytes();
  rom.store(sample_record(1), payload_of(1000, 1));
  EXPECT_EQ(rom.free_bytes(), before - 1000 - kRecordBytes);
}

TEST(RomImageTest, ClearErasesEverything) {
  RomImage rom(8192);
  rom.store(sample_record(1), payload_of(1000, 1));
  rom.clear();
  EXPECT_TRUE(rom.records().empty());
  EXPECT_EQ(rom.data_bytes(), 0u);
  EXPECT_FALSE(rom.lookup(1).has_value());
}

TEST(RomTimingTest, SequentialReadScalesWithSize) {
  const RomTiming timing;
  EXPECT_EQ(timing.read_time(0), sim::SimTime::zero());
  const auto t1k = timing.read_time(1024);
  const auto t4k = timing.read_time(4096);
  EXPECT_GT(t4k, t1k * 3);
  EXPECT_LT(t4k, t1k * 5);
  // Writes are slower (flash programming).
  EXPECT_GT(timing.write_time(1024), t1k * 3);
}

TEST(RamTimingTest, AccessTimeScales) {
  const RamTiming timing;
  EXPECT_LT(timing.access_time(4), timing.access_time(400));
}

}  // namespace
}  // namespace aad::memory
