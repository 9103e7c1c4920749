// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
//
// Used in three roles: (1) integrity field of the bitstream format, (2) the
// golden software reference for the CRC32 hardware kernel, and (3) checksum
// of ROM records.  Incremental interface so streams can be checksummed
// window by window.  Spans are folded slice-by-8: eight 256-entry tables
// consume eight bytes per step, in portable C++ (the x86 `crc32`
// instruction computes CRC-32C, a different polynomial).
#pragma once

#include <cstdint>
#include <cstddef>

#include "common/bytebuffer.h"

namespace aad {

class Crc32 {
 public:
  Crc32() = default;

  /// Fold `data` into the running CRC.
  void update(ByteSpan data) noexcept;
  void update(Byte b) noexcept;

  /// Final (post-inverted) CRC value.
  std::uint32_t value() const noexcept { return state_ ^ 0xFFFFFFFFu; }

  void reset() noexcept { state_ = 0xFFFFFFFFu; }

  /// One-shot convenience.
  static std::uint32_t compute(ByteSpan data) noexcept {
    Crc32 crc;
    crc.update(data);
    return crc.value();
  }

 private:
  std::uint32_t state_ = 0xFFFFFFFFu;
};

}  // namespace aad
