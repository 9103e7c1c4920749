#include "common/crc32.h"

#include <array>

namespace aad {
namespace {

// Slice-by-8 tables, generated once from the reflected IEEE polynomial.
// tables[0] is the classic byte-at-a-time table; tables[k][i] is the CRC of
// byte i followed by k zero bytes, so eight lookups fold eight bytes at once.
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() noexcept {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = t[0][t[k - 1][i] & 0xFFu] ^ (t[k - 1][i] >> 8);
  return t;
}

const Tables& tables() noexcept {
  static const Tables t = make_tables();
  return t;
}

// Little-endian assembly from individual bytes: no unaligned load and no
// assumption about host byte order.
std::uint32_t load_le32(const Byte* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

void Crc32::update(Byte b) noexcept {
  state_ = tables()[0][(state_ ^ b) & 0xFFu] ^ (state_ >> 8);
}

void Crc32::update(ByteSpan data) noexcept {
  const Tables& t = tables();
  std::uint32_t c = state_;
  const Byte* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = c ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  state_ = c;
}

}  // namespace aad
