// The slow differential-test oracle for netlist::LutExecutor: the
// switch-based executor the MCU ran before execution was compiled to a flat
// program.  It resolves every pin through a NetKind switch against
// std::vector<bool> state on every cycle — small and obviously a reading of
// the documented cycle semantics, so tests diff the compiled executor
// against it.  Kept verbatim apart from being header-only; like the original
// it borrows the network, which must outlive it.
#pragma once

#include <algorithm>
#include <vector>

#include "common/error.h"
#include "netlist/lutnetwork.h"

namespace aad::netlist::oracle {

class LutExecutor {
 public:
  explicit LutExecutor(const LutNetwork& network)
      : network_(network),
        comb_(network.slots().size(), false),
        regs_(network.slots().size(), false) {
    network.validate();
  }

  void reset() {
    std::fill(comb_.begin(), comb_.end(), false);
    std::fill(regs_.begin(), regs_.end(), false);
    cycles_ = 0;
  }

  /// One clock cycle; returns the output bus.
  std::vector<bool> step(const std::vector<bool>& inputs) {
    AAD_REQUIRE(inputs.size() == network_.input_width(),
                "executor input width mismatch");
    const auto& slots = network_.slots();

    // Phase 1: combinational settle in slot order.
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const LutSlot& s = slots[i];
      comb_[i] = eval_truth(s.truth, resolve(s.pins[0], inputs),
                            resolve(s.pins[1], inputs),
                            resolve(s.pins[2], inputs),
                            resolve(s.pins[3], inputs));
    }
    // Phase 2: sample the output bus *pre-latch* — registered outputs read
    // the current state, matching the gate-level Simulator's semantics.
    std::vector<bool> outputs(network_.output_width(), false);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const LutSlot& s = slots[i];
      if (s.is_output) outputs[s.output_bit] = s.has_ff ? regs_[i] : comb_[i];
    }

    // Phase 3: FF slots re-evaluate their LUT post-settle (legalizes forward
    // D-path references) and latch.
    std::vector<bool> next_regs = regs_;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      const LutSlot& s = slots[i];
      if (!s.has_ff) continue;
      next_regs[i] = eval_truth(s.truth, resolve(s.pins[0], inputs),
                                resolve(s.pins[1], inputs),
                                resolve(s.pins[2], inputs),
                                resolve(s.pins[3], inputs));
    }
    regs_.swap(next_regs);
    ++cycles_;
    return outputs;
  }

  std::size_t cycle_count() const noexcept { return cycles_; }

 private:
  bool resolve(const NetRef& ref, const std::vector<bool>& inputs) const {
    switch (ref.kind) {
      case NetKind::kUnused:
      case NetKind::kConst0:
        return false;
      case NetKind::kConst1:
        return true;
      case NetKind::kPrimary:
        return inputs[ref.index];
      case NetKind::kLutComb:
        return comb_[ref.index];
      case NetKind::kLutReg:
        return regs_[ref.index];
    }
    return false;
  }

  const LutNetwork& network_;
  std::vector<bool> comb_;  // per-slot settled LUT output
  std::vector<bool> regs_;  // per-slot FF state (unused when !has_ff)
  std::size_t cycles_ = 0;
};

}  // namespace aad::netlist::oracle
