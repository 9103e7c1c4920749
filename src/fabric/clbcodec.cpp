#include "fabric/clbcodec.h"

#include "common/bitops.h"

namespace aad::fabric {

using netlist::LutNetwork;
using netlist::LutSlot;
using netlist::NetKind;
using netlist::NetRef;

namespace {

constexpr unsigned kKindBits = 3;
constexpr Word kKindMask = (1u << kKindBits) - 1;

Word encode_pin(const NetRef& ref) {
  return (static_cast<Word>(ref.kind) & kKindMask) | (ref.index << kKindBits);
}

NetRef decode_pin(Word word) {
  const auto kind_raw = word & kKindMask;
  if (kind_raw > static_cast<Word>(NetKind::kLutReg))
    AAD_FAIL(ErrorCode::kCorruptData, "invalid pin selector kind");
  NetRef ref;
  ref.kind = static_cast<NetKind>(kind_raw);
  ref.index = word >> kKindBits;
  return ref;
}

bool slot_is_empty(const LutSlot& slot) {
  return slot == LutSlot{};
}

}  // namespace

std::string device_id(const FrameGeometry& geometry) {
  return "AAD-" + std::to_string(geometry.frame_count) + "x" +
         std::to_string(geometry.clb_rows);
}

void encode_slot(const LutSlot& slot, std::span<Word> out) {
  AAD_REQUIRE(out.size() == kWordsPerLutSlot, "slot word span size mismatch");
  out[0] = static_cast<Word>(slot.truth) |
           (slot.has_ff ? (1u << 16) : 0u) |
           (slot.is_output ? (1u << 17) : 0u) |
           (static_cast<Word>(slot.output_bit) << 20);
  for (unsigned pin = 0; pin < 4; ++pin)
    out[1 + pin] = encode_pin(slot.pins[pin]);
}

LutSlot decode_slot(std::span<const Word> in) {
  AAD_REQUIRE(in.size() == kWordsPerLutSlot, "slot word span size mismatch");
  LutSlot slot;
  slot.truth = static_cast<std::uint16_t>(in[0] & 0xFFFFu);
  slot.has_ff = (in[0] >> 16) & 1u;
  slot.is_output = (in[0] >> 17) & 1u;
  slot.output_bit = static_cast<std::uint16_t>(in[0] >> 20);
  for (unsigned pin = 0; pin < 4; ++pin)
    slot.pins[pin] = decode_pin(in[1 + pin]);
  return slot;
}

void derive_switch_words(std::span<const LutSlot> clb_slots,
                         std::span<Word> out) {
  AAD_REQUIRE(clb_slots.size() == kLutsPerClb, "CLB must have 4 slots");
  AAD_REQUIRE(out.size() == kSwitchWordsPerClb, "switch span size mismatch");
  // Switch word k: byte s holds (kind<<5 | index&0x1F) of slot s, pin k.
  for (unsigned pin = 0; pin < kSwitchWordsPerClb; ++pin) {
    Word w = 0;
    for (unsigned s = 0; s < kLutsPerClb; ++s) {
      const NetRef& ref = clb_slots[s].pins[pin];
      const Word byte = (static_cast<Word>(ref.kind) << 5) |
                        (ref.index & 0x1Fu);
      w |= byte << (8 * s);
    }
    out[pin] = w;
  }
}

std::vector<std::vector<Word>> encode_frames(const LutNetwork& network,
                                             const FrameGeometry& geometry) {
  geometry.validate();
  const auto& slots = network.slots();
  const unsigned per_frame = geometry.slots_per_frame();
  const std::size_t frame_count = std::max<std::size_t>(
      1, bits::ceil_div(slots.size(), per_frame));

  std::vector<std::vector<Word>> frames(
      frame_count, std::vector<Word>(geometry.words_per_frame(), 0));

  for (std::size_t f = 0; f < frame_count; ++f) {
    auto& payload = frames[f];
    for (unsigned row = 0; row < geometry.clb_rows; ++row) {
      LutSlot clb[kLutsPerClb];
      for (unsigned s = 0; s < kLutsPerClb; ++s) {
        const std::size_t logical =
            f * per_frame + row * kLutsPerClb + s;
        if (logical < slots.size()) clb[s] = slots[logical];
      }
      const std::size_t base = static_cast<std::size_t>(row) * kWordsPerClb;
      for (unsigned s = 0; s < kLutsPerClb; ++s)
        encode_slot(clb[s], std::span<Word>(&payload[base + s * kWordsPerLutSlot],
                                            kWordsPerLutSlot));
      derive_switch_words(
          std::span<const LutSlot>(clb, kLutsPerClb),
          std::span<Word>(&payload[base + kLutsPerClb * kWordsPerLutSlot],
                          kSwitchWordsPerClb));
    }
  }
  return frames;
}

netlist::LutNetwork decode_frames(std::span<const std::vector<Word>> frames,
                                  const FrameGeometry& geometry,
                                  const std::string& name,
                                  std::size_t input_width,
                                  std::size_t output_width) {
  geometry.validate();
  LutNetwork network(name, input_width, output_width);
  std::vector<LutSlot> all;
  for (const auto& payload : frames) {
    AAD_REQUIRE(payload.size() == geometry.words_per_frame(),
                "frame payload size mismatch");
    for (unsigned row = 0; row < geometry.clb_rows; ++row) {
      const std::size_t base = static_cast<std::size_t>(row) * kWordsPerClb;
      LutSlot clb[kLutsPerClb];
      for (unsigned s = 0; s < kLutsPerClb; ++s)
        clb[s] = decode_slot(std::span<const Word>(
            &payload[base + s * kWordsPerLutSlot], kWordsPerLutSlot));
      // Cross-check the redundant switch-block words; a mismatch means the
      // configuration stream was corrupted between ROM and config port.
      Word expect[kSwitchWordsPerClb];
      derive_switch_words(std::span<const LutSlot>(clb, kLutsPerClb),
                          std::span<Word>(expect, kSwitchWordsPerClb));
      for (unsigned k = 0; k < kSwitchWordsPerClb; ++k)
        if (payload[base + kLutsPerClb * kWordsPerLutSlot + k] != expect[k])
          AAD_FAIL(ErrorCode::kCorruptData,
                   "switch-block words inconsistent with LUT selectors");
      for (unsigned s = 0; s < kLutsPerClb; ++s) all.push_back(clb[s]);
    }
  }
  while (!all.empty() && slot_is_empty(all.back())) all.pop_back();
  for (const LutSlot& slot : all) network.add_slot(slot);
  return network;
}

}  // namespace aad::fabric
