// ROM image with the paper's two-ended layout (§2.2):
//
//   "The compressed configuration bit-streams are loaded from one end of
//    the ROM while the record table is populated from the other end."
//
// Compressed frame-payload streams grow upward from byte 0; fixed-size
// records grow downward from the top.  The ROM is full when the two regions
// would meet.  Records hold everything the microcontroller needs: start
// address and size of the compressed stream (as in the paper), the
// function's I/O sizes, and the codec/kind/footprint metadata our richer
// pipeline requires.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "bitstream/bitstream.h"
#include "common/bytebuffer.h"
#include "compress/codec.h"
#include "sim/time.h"

namespace aad::memory {

using FunctionId = std::uint32_t;

struct RomRecord {
  FunctionId function_id = 0;
  std::string name;                              ///< <= 24 bytes
  bitstream::FunctionKind kind = bitstream::FunctionKind::kNetlist;
  compress::CodecId codec = compress::CodecId::kNull;
  std::uint32_t start = 0;            ///< compressed stream offset in ROM
  std::uint32_t compressed_size = 0;  ///< bytes
  std::uint32_t raw_size = 0;         ///< decompressed payload bytes
  std::uint16_t frames = 0;           ///< frame payloads in the stream
  std::uint16_t clb_rows = 0;         ///< geometry echo (load-time check)
  std::uint32_t input_width = 0;      ///< input bus bits per cycle
  std::uint32_t output_width = 0;     ///< output bus bits per cycle
  std::uint32_t kernel_id = 0;        ///< catalog kernel id
  std::uint32_t payload_crc = 0;      ///< CRC-32 of the compressed stream

  bool operator==(const RomRecord&) const = default;
};

/// Fixed on-ROM record footprint.
constexpr std::size_t kRecordBytes = 64;

Bytes serialize_record(const RomRecord& record);
RomRecord parse_record(ByteSpan data);

/// Byte-addressable ROM with the two-ended layout.
class RomImage {
 public:
  explicit RomImage(std::size_t capacity_bytes);

  /// Append a compressed stream and its record.  `record.start`,
  /// `record.compressed_size` and `record.payload_crc` are filled in here.
  /// Throws kCapacityExceeded if data and record regions would collide,
  /// kAlreadyExists on a duplicate function id.
  RomRecord store(RomRecord record, ByteSpan compressed);

  std::optional<RomRecord> lookup(FunctionId id) const;
  /// Whether `id` has a record; unlike lookup, copies nothing.
  bool contains(FunctionId id) const noexcept;
  const std::vector<RomRecord>& records() const noexcept { return records_; }

  /// Borrow the compressed stream of a record.
  ByteSpan payload(const RomRecord& record) const;

  // --- fault injection + recovery ------------------------------------------
  // The record table (and its payload_crc) is the driver's ground truth;
  // only the stored stream bytes take damage, so a corrupted payload is
  // detected by the configuration engine's CRC check at load time.

  /// Flip `bit_flips` payload bits of `id`'s compressed stream, drawn
  /// deterministically from `seed` (sim::RomCorruption's mechanism).
  /// Returns false (no-op) when the id is unknown or the payload is empty.
  bool corrupt_payload(FunctionId id, std::uint64_t seed, unsigned bit_flips);

  /// Overwrite `id`'s payload bytes in place — the host's re-fetch path
  /// after a CRC reject (the record, including payload_crc, is unchanged).
  /// `bytes` must match the record's compressed_size exactly.
  void rewrite_payload(FunctionId id, ByteSpan bytes);

  std::size_t capacity() const noexcept { return storage_.size(); }
  std::size_t data_bytes() const noexcept { return data_end_; }
  std::size_t record_bytes() const noexcept {
    return records_.size() * kRecordBytes;
  }
  std::size_t free_bytes() const noexcept {
    return storage_.size() - data_end_ - record_bytes();
  }

  /// Erase everything (re-provisioning from the host).
  void clear();

 private:
  Bytes storage_;
  std::size_t data_end_ = 0;          // data region: [0, data_end_)
  std::vector<RomRecord> records_;    // record region grows from the top
};

/// ROM access timing (2005-era parallel flash: slow random word access,
/// faster page-sequential streaming).
struct RomTiming {
  sim::SimTime first_word = sim::SimTime::ns(120);
  sim::SimTime sequential_word = sim::SimTime::ns(60);  // per 32-bit word
  double write_multiplier = 4.0;  ///< programming is ~4x slower than reading

  sim::SimTime read_time(std::size_t bytes) const noexcept {
    if (bytes == 0) return sim::SimTime::zero();
    const std::size_t words = (bytes + 3) / 4;
    return first_word + sequential_word * static_cast<std::int64_t>(words - 1);
  }
  sim::SimTime write_time(std::size_t bytes) const noexcept {
    const auto base = read_time(bytes);
    return sim::SimTime::ps(static_cast<std::int64_t>(
        static_cast<double>(base.picoseconds()) * write_multiplier));
  }
};

}  // namespace aad::memory
