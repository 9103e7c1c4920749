#include "bitstream/bitstream.h"

#include "common/crc32.h"
#include "fabric/clbcodec.h"

namespace aad::bitstream {

const char* to_string(FunctionKind kind) noexcept {
  switch (kind) {
    case FunctionKind::kNetlist: return "netlist";
    case FunctionKind::kBehavioral: return "behavioral";
  }
  return "?";
}

std::size_t Bitstream::byte_size() const noexcept {
  // Header (fixed) + payload words + CRC.
  constexpr std::size_t kHeaderBytes =
      4 + 2 + 1 + 1 + kNameBytes + 2 + 2 + 4 + 4 + 4 + 4;
  std::size_t words = 0;
  for (const auto& f : frames) words += f.size();
  return kHeaderBytes + words * sizeof(fabric::Word) + 4;
}

Bytes serialize(const Bitstream& bitstream) {
  const auto& info = bitstream.info;
  AAD_REQUIRE(info.name.size() <= kNameBytes, "function name too long");
  for (const auto& frame : bitstream.frames)
    AAD_REQUIRE(frame.size() == info.geometry.words_per_frame(),
                "frame payload size does not match geometry");

  ByteWriter w;
  w.u32(kMagic);
  w.u16(kVersion);
  w.u8(static_cast<std::uint8_t>(info.kind));
  w.u8(0);  // reserved
  w.fixed_string(info.name, kNameBytes);
  w.u16(static_cast<std::uint16_t>(info.geometry.clb_rows));
  w.u16(static_cast<std::uint16_t>(info.geometry.frame_count));
  w.u32(info.input_width);
  w.u32(info.output_width);
  w.u32(info.kernel_id);
  w.u32(static_cast<std::uint32_t>(bitstream.frames.size()));
  for (const auto& frame : bitstream.frames)
    for (fabric::Word word : frame) w.u32(word);
  const std::uint32_t crc = Crc32::compute(w.data());
  w.u32(crc);
  return std::move(w).take();
}

Bitstream parse(ByteSpan data) {
  if (data.size() < 4 + 4)
    AAD_FAIL(ErrorCode::kCorruptData, "bitstream truncated");
  // CRC covers everything but the trailing CRC word itself.
  const std::uint32_t stored_crc =
      static_cast<std::uint32_t>(data[data.size() - 4]) |
      (static_cast<std::uint32_t>(data[data.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(data[data.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(data[data.size() - 1]) << 24);
  if (Crc32::compute(data.subspan(0, data.size() - 4)) != stored_crc)
    AAD_FAIL(ErrorCode::kCorruptData, "bitstream CRC mismatch");

  ByteReader r(data);
  if (r.u32() != kMagic)
    AAD_FAIL(ErrorCode::kCorruptData, "bad bitstream magic");
  if (r.u16() != kVersion)
    AAD_FAIL(ErrorCode::kCorruptData, "unsupported bitstream version");

  Bitstream out;
  const auto kind_raw = r.u8();
  if (kind_raw > static_cast<std::uint8_t>(FunctionKind::kBehavioral))
    AAD_FAIL(ErrorCode::kCorruptData, "unknown function kind");
  out.info.kind = static_cast<FunctionKind>(kind_raw);
  r.skip(1);  // reserved
  out.info.name = r.fixed_string(kNameBytes);
  out.info.geometry.clb_rows = r.u16();
  out.info.geometry.frame_count = r.u16();
  out.info.geometry.validate();
  out.info.input_width = r.u32();
  out.info.output_width = r.u32();
  out.info.kernel_id = r.u32();
  const std::uint32_t frame_count = r.u32();
  const std::size_t words_per_frame = out.info.geometry.words_per_frame();
  if (r.remaining() != frame_count * words_per_frame * sizeof(fabric::Word) + 4)
    AAD_FAIL(ErrorCode::kCorruptData, "bitstream payload length mismatch");
  out.frames.resize(frame_count);
  for (auto& frame : out.frames) {
    frame.resize(words_per_frame);
    for (auto& word : frame) word = r.u32();
  }
  return out;
}

Bytes pack_frame_payloads(const Bitstream& bitstream) {
  ByteWriter w;
  for (const auto& frame : bitstream.frames)
    for (fabric::Word word : frame) w.u32(word);
  return std::move(w).take();
}

std::vector<fabric::Word> bytes_to_words(ByteSpan data) {
  AAD_REQUIRE(data.size() % 4 == 0, "word stream length not word-aligned");
  std::vector<fabric::Word> words(data.size() / 4);
  const Byte* p = data.data();
  for (auto& word : words) {
    word = static_cast<fabric::Word>(p[0]) |
           static_cast<fabric::Word>(p[1]) << 8 |
           static_cast<fabric::Word>(p[2]) << 16 |
           static_cast<fabric::Word>(p[3]) << 24;
    p += 4;
  }
  return words;
}

Bitstream from_network(const netlist::LutNetwork& network,
                       const fabric::FrameGeometry& geometry) {
  Bitstream out;
  out.info.name = network.name();
  out.info.kind = FunctionKind::kNetlist;
  out.info.geometry = geometry;
  out.info.input_width = static_cast<std::uint32_t>(network.input_width());
  out.info.output_width = static_cast<std::uint32_t>(network.output_width());
  out.frames = fabric::encode_frames(network, geometry);
  return out;
}

}  // namespace aad::bitstream
