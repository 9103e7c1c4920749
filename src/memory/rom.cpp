#include "memory/rom.h"

#include <algorithm>

#include "common/crc32.h"
#include "common/prng.h"

namespace aad::memory {

Bytes serialize_record(const RomRecord& record) {
  AAD_REQUIRE(record.name.size() <= bitstream::kNameBytes,
              "record name too long");
  ByteWriter w;
  w.u32(record.function_id);
  w.fixed_string(record.name, bitstream::kNameBytes);
  w.u8(static_cast<std::uint8_t>(record.kind));
  w.u8(static_cast<std::uint8_t>(record.codec));
  w.u16(record.frames);
  w.u16(record.clb_rows);
  w.u32(record.start);
  w.u32(record.compressed_size);
  w.u32(record.raw_size);
  w.u32(record.input_width);
  w.u32(record.output_width);
  w.u32(record.kernel_id);
  w.u32(record.payload_crc);
  // Pad to the fixed footprint.
  while (w.size() < kRecordBytes - 2) w.u8(0);
  // Record checksum (16-bit fold of CRC-32) closes the slot.
  const std::uint32_t crc = Crc32::compute(w.data());
  w.u16(static_cast<std::uint16_t>(crc ^ (crc >> 16)));
  AAD_CHECK(w.size() == kRecordBytes, "record footprint drifted");
  return std::move(w).take();
}

RomRecord parse_record(ByteSpan data) {
  AAD_REQUIRE(data.size() == kRecordBytes, "record slot size mismatch");
  {
    const std::uint32_t crc = Crc32::compute(data.subspan(0, kRecordBytes - 2));
    const std::uint16_t expect =
        static_cast<std::uint16_t>(crc ^ (crc >> 16));
    const std::uint16_t stored = static_cast<std::uint16_t>(
        data[kRecordBytes - 2] | (data[kRecordBytes - 1] << 8));
    if (stored != expect)
      AAD_FAIL(ErrorCode::kCorruptData, "ROM record checksum mismatch");
  }
  ByteReader r(data);
  RomRecord rec;
  rec.function_id = r.u32();
  rec.name = r.fixed_string(bitstream::kNameBytes);
  const auto kind_raw = r.u8();
  if (kind_raw > static_cast<std::uint8_t>(bitstream::FunctionKind::kBehavioral))
    AAD_FAIL(ErrorCode::kCorruptData, "ROM record kind invalid");
  rec.kind = static_cast<bitstream::FunctionKind>(kind_raw);
  const auto codec_raw = r.u8();
  if (codec_raw > static_cast<std::uint8_t>(compress::CodecId::kDeltaGolomb))
    AAD_FAIL(ErrorCode::kCorruptData, "ROM record codec invalid");
  rec.codec = static_cast<compress::CodecId>(codec_raw);
  rec.frames = r.u16();
  rec.clb_rows = r.u16();
  rec.start = r.u32();
  rec.compressed_size = r.u32();
  rec.raw_size = r.u32();
  rec.input_width = r.u32();
  rec.output_width = r.u32();
  rec.kernel_id = r.u32();
  rec.payload_crc = r.u32();
  return rec;
}

RomImage::RomImage(std::size_t capacity_bytes)
    : storage_(capacity_bytes, 0) {
  AAD_REQUIRE(capacity_bytes >= 2 * kRecordBytes, "ROM capacity too small");
}

RomRecord RomImage::store(RomRecord record, ByteSpan compressed) {
  if (lookup(record.function_id))
    AAD_FAIL(ErrorCode::kAlreadyExists,
             "function id already stored: " + std::to_string(record.function_id));
  const std::size_t needed = compressed.size() + kRecordBytes;
  if (data_end_ + record_bytes() + needed > storage_.size())
    AAD_FAIL(ErrorCode::kCapacityExceeded,
             "ROM full: data and record regions would collide");

  record.start = static_cast<std::uint32_t>(data_end_);
  record.compressed_size = static_cast<std::uint32_t>(compressed.size());
  record.payload_crc = Crc32::compute(compressed);

  // Data region grows upward from byte 0 ...
  std::copy(compressed.begin(), compressed.end(),
            storage_.begin() + static_cast<std::ptrdiff_t>(data_end_));
  data_end_ += compressed.size();

  // ... and the record table downward from the top.
  const Bytes slot = serialize_record(record);
  const std::size_t slot_offset =
      storage_.size() - (records_.size() + 1) * kRecordBytes;
  std::copy(slot.begin(), slot.end(),
            storage_.begin() + static_cast<std::ptrdiff_t>(slot_offset));

  records_.push_back(record);
  return record;
}

std::optional<RomRecord> RomImage::lookup(FunctionId id) const {
  for (const RomRecord& rec : records_)
    if (rec.function_id == id) return rec;
  return std::nullopt;
}

bool RomImage::contains(FunctionId id) const noexcept {
  for (const RomRecord& rec : records_)
    if (rec.function_id == id) return true;
  return false;
}

ByteSpan RomImage::payload(const RomRecord& record) const {
  AAD_REQUIRE(record.start + record.compressed_size <= data_end_,
              "record payload outside ROM data region");
  return ByteSpan(storage_.data() + record.start, record.compressed_size);
}

bool RomImage::corrupt_payload(FunctionId id, std::uint64_t seed,
                               unsigned bit_flips) {
  const auto record = lookup(id);
  if (!record || record->compressed_size == 0) return false;
  Prng rng(seed);
  for (unsigned i = 0; i < bit_flips; ++i) {
    const std::size_t bit = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(record->compressed_size) * 8));
    storage_[record->start + bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
  }
  return bit_flips > 0;
}

void RomImage::rewrite_payload(FunctionId id, ByteSpan bytes) {
  const auto record = lookup(id);
  AAD_REQUIRE(record.has_value(), "rewriting an unknown function's payload");
  AAD_REQUIRE(bytes.size() == record->compressed_size,
              "re-fetched payload size differs from the stored record");
  std::copy(bytes.begin(), bytes.end(),
            storage_.begin() + static_cast<std::ptrdiff_t>(record->start));
}

void RomImage::clear() {
  std::fill(storage_.begin(), storage_.end(), Byte{0});
  data_end_ = 0;
  records_.clear();
}

}  // namespace aad::memory
