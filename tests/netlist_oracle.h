// The gate-level differential-test oracle for every netlist lowering step:
// a reference simulator that evaluates a Netlist gate by gate, independent
// of the LUT mapper, the optimizer and the fabric.  The library never runs
// it (the card executes compiled LUT networks), so it lives with the tests,
// header-only, like lut_oracle.h.  It borrows the netlist, which must
// outlive it.
#pragma once

#include <vector>

#include "common/error.h"
#include "netlist/netlist.h"

namespace aad::netlist {

class Simulator {
 public:
  explicit Simulator(const Netlist& netlist)
      : netlist_(netlist),
        order_(netlist.topological_order()),
        input_nodes_(netlist.ordered_inputs()),
        output_nodes_(netlist.ordered_outputs()),
        values_(netlist.node_count(), false) {
    for (NodeId id = 0; id < netlist.node_count(); ++id)
      if (netlist.node(id).kind == GateKind::kDff) dff_nodes_.push_back(id);
    dff_values_.assign(dff_nodes_.size(), false);
  }

  /// Evaluate one clock cycle: combinational settle with the given primary
  /// inputs (ordered_inputs() order), then latch all DFFs.  Returns output
  /// bits in ordered_outputs() order.
  std::vector<bool> step(const std::vector<bool>& inputs) {
    std::vector<bool> out = evaluate(inputs);
    for (std::size_t i = 0; i < dff_nodes_.size(); ++i)
      dff_values_[i] = values_[netlist_.node(dff_nodes_[i]).fanins[0]];
    return out;
  }

  /// Combinational-only evaluation (DFF state unchanged).
  std::vector<bool> evaluate(const std::vector<bool>& inputs) {
    settle(inputs);
    std::vector<bool> out(output_nodes_.size());
    for (std::size_t i = 0; i < output_nodes_.size(); ++i)
      out[i] = values_[output_nodes_[i]];
    return out;
  }

  /// Reset all DFFs to zero.
  void reset() { dff_values_.assign(dff_nodes_.size(), false); }

  const std::vector<bool>& dff_state() const noexcept { return dff_values_; }

 private:
  void settle(const std::vector<bool>& inputs) {
    AAD_REQUIRE(inputs.size() == input_nodes_.size(),
                "simulator input width mismatch");
    for (std::size_t i = 0; i < input_nodes_.size(); ++i)
      values_[input_nodes_[i]] = inputs[i];
    for (std::size_t i = 0; i < dff_nodes_.size(); ++i)
      values_[dff_nodes_[i]] = dff_values_[i];

    for (NodeId id : order_) {
      const Node& node = netlist_.node(id);
      auto in = [&](std::size_t k) -> bool { return values_[node.fanins[k]]; };
      switch (node.kind) {
        case GateKind::kInput:
        case GateKind::kDff:
          break;  // already seeded above
        case GateKind::kConst0: values_[id] = false; break;
        case GateKind::kConst1: values_[id] = true; break;
        case GateKind::kBuf: values_[id] = in(0); break;
        case GateKind::kNot: values_[id] = !in(0); break;
        case GateKind::kAnd: values_[id] = in(0) && in(1); break;
        case GateKind::kOr: values_[id] = in(0) || in(1); break;
        case GateKind::kXor: values_[id] = in(0) != in(1); break;
        case GateKind::kNand: values_[id] = !(in(0) && in(1)); break;
        case GateKind::kNor: values_[id] = !(in(0) || in(1)); break;
        case GateKind::kXnor: values_[id] = in(0) == in(1); break;
        case GateKind::kMux: values_[id] = in(2) ? in(1) : in(0); break;
      }
    }
  }

  const Netlist& netlist_;
  std::vector<NodeId> order_;
  std::vector<NodeId> input_nodes_;
  std::vector<NodeId> output_nodes_;
  std::vector<NodeId> dff_nodes_;
  std::vector<bool> values_;      // per node, after settle
  std::vector<bool> dff_values_;  // per DFF node (parallel to dff_nodes_)
};

}  // namespace aad::netlist
