// Encoding of LUT slots and switch blocks into frame configuration words.
//
// Pin selectors are encoded with *logical* slot indices (position within the
// function's own frame sequence), never physical coordinates — this is what
// makes a function's partial bitstream relocatable into any set of free
// frames, contiguous or not (paper §2.5).
#pragma once

#include <span>
#include <vector>

#include "fabric/geometry.h"
#include "netlist/lutnetwork.h"

namespace aad::fabric {

/// Encode one LUT slot into kWordsPerLutSlot words.
///   word0: truth[15:0] | has_ff<<16 | is_output<<17 | output_bit<<20
///   word1..4: pin k: kind[2:0] | index<<3
void encode_slot(const netlist::LutSlot& slot, std::span<Word> out);

/// Decode one LUT slot from kWordsPerLutSlot words.
netlist::LutSlot decode_slot(std::span<const Word> in);

/// Derive the 4 switch-block words of a CLB from its 4 slots' pin selectors.
/// Switch word k packs pin-k routing of all 4 slots (kind + low index bits).
/// Redundant with the slot words by construction — like real switch-matrix
/// configuration it is highly structured, which is exactly what the
/// symmetry-aware compressors exploit.
void derive_switch_words(std::span<const netlist::LutSlot> clb_slots,
                         std::span<Word> out);

/// Serialize `network` into whole frame payloads (padded with empty slots).
/// Returns ceil(slots / slots_per_frame) frames of words_per_frame words.
std::vector<std::vector<Word>> encode_frames(
    const netlist::LutNetwork& network, const FrameGeometry& geometry);

/// Rebuild a LutNetwork from frame payloads laid out by encode_frames.
/// Trailing all-empty slots are trimmed.  Throws kCorruptData on malformed
/// or inconsistent switch words.  The network's structure is not validated
/// here: its consumer does that once (netlist::LutExecutor's constructor
/// runs LutNetwork::validate before compiling).
netlist::LutNetwork decode_frames(
    std::span<const std::vector<Word>> frames, const FrameGeometry& geometry,
    const std::string& name, std::size_t input_width,
    std::size_t output_width);

}  // namespace aad::fabric
