// LUT4 network: the post-technology-mapping representation.
//
// A LutNetwork is an ordered list of logical *slots*.  Each slot holds one
// 4-input LUT (16-bit truth table), an optional D flip-flop that latches the
// LUT output at the end of every cycle, and an optional output-bus binding.
// Slot inputs reference primary input bits, other slots' combinational
// outputs, other slots' registered (Q) outputs, or constants.
//
// Slot order is the *logical placement order*: the bitstream generator packs
// slots 4-per-CLB and `clb_rows`-CLBs-per-frame in exactly this order, which
// is what makes function bitstreams relocatable to any set of free frames
// (contiguous or not) — references are slot-relative, never physical.
#pragma once

#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/bytebuffer.h"
#include "common/error.h"

namespace aad::netlist {

enum class NetKind : std::uint8_t {
  kUnused = 0,  ///< pin not connected (reads as 0)
  kConst0 = 1,
  kConst1 = 2,
  kPrimary = 3,  ///< index = bit of the function input bus
  kLutComb = 4,  ///< index = earlier slot, combinational output
  kLutReg = 5,   ///< index = any slot with a flip-flop, registered Q output
};

struct NetRef {
  NetKind kind = NetKind::kUnused;
  std::uint32_t index = 0;

  bool operator==(const NetRef&) const = default;
};

/// One logical slot: LUT4 + optional FF + optional output binding.
struct LutSlot {
  std::uint16_t truth = 0;   ///< truth[idx], idx = pin3..pin0 as bits 3..0
  NetRef pins[4];
  bool has_ff = false;       ///< FF latches post-settle value of pin 0 path
  bool is_output = false;
  std::uint16_t output_bit = 0;  ///< position on the function output bus

  bool operator==(const LutSlot&) const = default;
};

/// LUT4 network with a defined cycle semantics; LutExecutor runs it.
class LutNetwork {
 public:
  LutNetwork() = default;
  LutNetwork(std::string name, std::size_t input_width,
             std::size_t output_width)
      : name_(std::move(name)),
        input_width_(input_width),
        output_width_(output_width) {}

  const std::string& name() const noexcept { return name_; }
  std::size_t input_width() const noexcept { return input_width_; }
  std::size_t output_width() const noexcept { return output_width_; }

  std::uint32_t add_slot(const LutSlot& slot);
  const std::vector<LutSlot>& slots() const noexcept { return slots_; }
  LutSlot& slot(std::uint32_t index);

  std::size_t lut_count() const noexcept { return slots_.size(); }
  std::size_t ff_count() const noexcept;

  /// Structural validation: pin references in range, combinational
  /// references strictly backward (except on FF D-paths, which latch after
  /// settle and may legally read forward), every output bit driven exactly
  /// once.  Throws on violation.
  void validate() const;

  bool operator==(const LutNetwork&) const = default;

 private:
  std::string name_;
  std::size_t input_width_ = 0;
  std::size_t output_width_ = 0;
  std::vector<LutSlot> slots_;
};

/// Cycle-accurate executor for a LutNetwork, compiled once at construction.
///
/// The constructor validates the network and lowers it to a flat program
/// over one byte-per-net state array laid out as
///   [const0, const1, primary inputs..., slot comb outputs..., slot FF Qs...]
/// (one Q per FF slot, in slot order).  Each slot becomes one op — its truth
/// table plus four pin indices into that array; unused pins read const0.
/// The output bus is a precomputed list of net indices (registered outputs
/// point at the Q net), and the FF slots are a precomputed list with one
/// next-state buffer allocated up front.  A cycle therefore resolves no
/// NetKind and allocates nothing.  The executor owns its program: the
/// network it was built from may go away.
///
/// Cycle semantics: settle every slot in slot order, sample the outputs
/// *pre-latch* (registered outputs read the current Q), then re-evaluate
/// the FF slots post-settle and latch them all at once.  Sequential kernels
/// therefore expose a `valid` enable and the host samples results on the
/// cycle after the last data beat.
class LutExecutor {
 public:
  explicit LutExecutor(const LutNetwork& network);

  /// Bytes that hold the input / output bus packed LSB-first.
  std::size_t input_bytes() const noexcept { return (input_width_ + 7) / 8; }
  std::size_t output_bytes() const noexcept { return (output_width_ + 7) / 8; }

  /// One clock cycle on packed buses.  Input bus bit i is bit i % 8 of
  /// in[i / 8] (LSB-first); `in` may be shorter than input_bytes() — the
  /// missing bytes read as zero — and bits past the input bus are ignored.
  /// An empty `out` skips sampling; otherwise it must hold exactly
  /// output_bytes() bytes and receives the output bus packed the same way,
  /// padding bits zero.
  void step(ByteSpan in, std::span<Byte> out);

  /// One clock cycle on unpacked buses (one bool per bus bit in and out): an
  /// adapter over the same evaluator for gate-level tests.
  std::vector<bool> step(const std::vector<bool>& inputs);

  /// Clear every input, comb output and FF, and the cycle count.
  void reset();

  std::size_t cycle_count() const noexcept { return cycles_; }

 private:
  using Net = std::uint32_t;
  static constexpr Net kConst0 = 0;
  static constexpr Net kConst1 = 1;
  static constexpr Net kFirstInput = 2;

  struct Op {
    std::uint16_t truth = 0;
    Net pin[4] = {};
  };

  // The cycle loops index the state through a local span, not the vector:
  // a byte store may alias the vector's own pointers, which would force a
  // reload per access.  Under _GLIBCXX_ASSERTIONS span indexing is checked.
  using State = std::span<std::uint8_t>;
  static std::uint8_t eval(const Op& op, State state) noexcept {
    const unsigned idx = state[op.pin[0]] | (state[op.pin[1]] << 1) |
                         (state[op.pin[2]] << 2) | (state[op.pin[3]] << 3);
    return static_cast<std::uint8_t>((op.truth >> idx) & 1u);
  }
  void settle() noexcept;
  void latch() noexcept;

  std::size_t input_width_ = 0;
  std::size_t output_width_ = 0;
  Net comb_base_ = 0;         ///< state index of slot 0's comb output
  Net q_base_ = 0;            ///< state index of the first FF's Q
  std::vector<Op> ops_;       ///< one per slot, in slot order
  std::vector<Net> outputs_;  ///< output bus bit -> net
  std::vector<std::uint32_t> ff_slots_;  ///< slots with an FF, in order
  std::vector<std::uint8_t> state_;      ///< one 0/1 byte per net
  std::vector<std::uint8_t> next_q_;     ///< post-settle FF inputs
  std::size_t cycles_ = 0;
};

/// Evaluate a 16-bit truth table at the given pin values.
constexpr bool eval_truth(std::uint16_t truth, bool p0, bool p1, bool p2,
                          bool p3) noexcept {
  const unsigned idx = (p0 ? 1u : 0u) | (p1 ? 2u : 0u) | (p2 ? 4u : 0u) |
                       (p3 ? 8u : 0u);
  return (truth >> idx) & 1u;
}

}  // namespace aad::netlist
