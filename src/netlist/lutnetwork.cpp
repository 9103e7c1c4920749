#include "netlist/lutnetwork.h"

#include <algorithm>

namespace aad::netlist {

std::uint32_t LutNetwork::add_slot(const LutSlot& slot) {
  slots_.push_back(slot);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

LutSlot& LutNetwork::slot(std::uint32_t index) {
  AAD_REQUIRE(index < slots_.size(), "slot index out of range");
  return slots_[index];
}

std::size_t LutNetwork::ff_count() const noexcept {
  return static_cast<std::size_t>(std::count_if(
      slots_.begin(), slots_.end(), [](const LutSlot& s) { return s.has_ff; }));
}

void LutNetwork::validate() const {
  std::vector<bool> output_seen(output_width_, false);
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const LutSlot& s = slots_[i];
    for (const NetRef& ref : s.pins) {
      switch (ref.kind) {
        case NetKind::kUnused:
        case NetKind::kConst0:
        case NetKind::kConst1:
          break;
        case NetKind::kPrimary:
          AAD_REQUIRE(ref.index < input_width_,
                      "primary pin beyond input bus width");
          break;
        case NetKind::kLutComb:
          // Combinational chains settle in slot order.  FF slots are exempt:
          // their D path is sampled after the whole network settles.
          AAD_REQUIRE(ref.index < slots_.size(), "comb pin out of range");
          AAD_REQUIRE(s.has_ff || ref.index < i,
                      "forward combinational reference outside an FF D-path");
          break;
        case NetKind::kLutReg:
          AAD_REQUIRE(ref.index < slots_.size(), "reg pin out of range");
          AAD_REQUIRE(slots_[ref.index].has_ff,
                      "registered reference to a slot without an FF");
          break;
      }
    }
    if (s.is_output) {
      AAD_REQUIRE(s.output_bit < output_width_,
                  "output bit beyond output bus width");
      AAD_REQUIRE(!output_seen[s.output_bit], "output bit driven twice");
      output_seen[s.output_bit] = true;
    }
  }
  for (std::size_t b = 0; b < output_width_; ++b)
    AAD_REQUIRE(output_seen[b], "output bit " + std::to_string(b) +
                                    " has no driver");
}

LutExecutor::LutExecutor(const LutNetwork& network)
    : input_width_(network.input_width()),
      output_width_(network.output_width()) {
  network.validate();
  const auto& slots = network.slots();
  const std::size_t ff_count = network.ff_count();
  const std::size_t nets =
      kFirstInput + input_width_ + slots.size() + ff_count;
  AAD_REQUIRE(nets <= UINT32_MAX, "network too large to compile");
  comb_base_ = static_cast<Net>(kFirstInput + input_width_);
  q_base_ = static_cast<Net>(comb_base_ + slots.size());

  // Slot -> its Q net; FF slots take consecutive Qs in slot order.
  std::vector<Net> q_of(slots.size(), kConst0);
  ff_slots_.reserve(ff_count);
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    if (!slots[i].has_ff) continue;
    q_of[i] = static_cast<Net>(q_base_ + ff_slots_.size());
    ff_slots_.push_back(i);
  }

  // validate() has bounded every index, so each net lands in the array.
  const auto net_of = [&](const NetRef& ref) -> Net {
    switch (ref.kind) {
      case NetKind::kUnused:
      case NetKind::kConst0:
        return kConst0;
      case NetKind::kConst1:
        return kConst1;
      case NetKind::kPrimary:
        return kFirstInput + ref.index;
      case NetKind::kLutComb:
        return comb_base_ + ref.index;
      case NetKind::kLutReg:
        return q_of[ref.index];
    }
    AAD_FAIL(ErrorCode::kCorruptData, "invalid pin selector kind");
  };
  ops_.reserve(slots.size());
  outputs_.assign(output_width_, kConst0);
  for (std::uint32_t i = 0; i < slots.size(); ++i) {
    const LutSlot& s = slots[i];
    Op op;
    op.truth = s.truth;
    for (unsigned p = 0; p < 4; ++p) op.pin[p] = net_of(s.pins[p]);
    ops_.push_back(op);
    if (s.is_output)
      outputs_[s.output_bit] = s.has_ff ? q_of[i] : comb_base_ + i;
  }
  state_.assign(nets, 0);
  state_[kConst1] = 1;
  next_q_.assign(ff_count, 0);
}

void LutExecutor::reset() {
  std::fill(state_.begin(), state_.end(), 0);
  state_[kConst1] = 1;
  cycles_ = 0;
}

void LutExecutor::settle() noexcept {
  const State state(state_);
  const std::span<const Op> ops(ops_);
  const State comb = state.subspan(comb_base_, ops.size());
  for (std::size_t i = 0; i < ops.size(); ++i) comb[i] = eval(ops[i], state);
}

// FF slots re-evaluate their LUT post-settle (legalizes forward D-path
// references); every FF reads the pre-latch Qs, then all latch at once.
void LutExecutor::latch() noexcept {
  const State state(state_);
  const std::span<const Op> ops(ops_);
  const std::span<const std::uint32_t> ff_slots(ff_slots_);
  const State next_q(next_q_);
  for (std::size_t k = 0; k < ff_slots.size(); ++k)
    next_q[k] = eval(ops[ff_slots[k]], state);
  std::copy(next_q.begin(), next_q.end(),
            state.subspan(q_base_, next_q.size()).begin());
  ++cycles_;
}

void LutExecutor::step(ByteSpan in, std::span<Byte> out) {
  AAD_REQUIRE(in.size() <= input_bytes(),
              "input larger than the function's input bus");
  AAD_REQUIRE(out.empty() || out.size() == output_bytes(),
              "output buffer does not match the output bus");
  const State state(state_);
  const State primary = state.subspan(kFirstInput, input_width_);
  for (std::size_t i = 0; i < input_width_; ++i) {
    const std::size_t byte = i / 8;
    primary[i] = byte < in.size()
                     ? static_cast<std::uint8_t>((in[byte] >> (i % 8)) & 1u)
                     : 0;
  }
  settle();
  if (!out.empty()) {
    std::fill(out.begin(), out.end(), 0);
    const std::span<const Net> outputs(outputs_);
    for (std::size_t b = 0; b < outputs.size(); ++b)
      out[b / 8] =
          static_cast<Byte>(out[b / 8] | (state[outputs[b]] << (b % 8)));
  }
  latch();
}

std::vector<bool> LutExecutor::step(const std::vector<bool>& inputs) {
  AAD_REQUIRE(inputs.size() == input_width_, "executor input width mismatch");
  for (std::size_t i = 0; i < input_width_; ++i)
    state_[kFirstInput + i] = inputs[i] ? 1 : 0;
  settle();
  std::vector<bool> outputs(output_width_);
  for (std::size_t b = 0; b < output_width_; ++b)
    outputs[b] = state_[outputs_[b]] != 0;
  latch();
  return outputs;
}

}  // namespace aad::netlist
