// Tests for the netlist optimizer: equivalence preservation (differential
// against the unoptimized netlist on every generator), specific rewrite
// rules, and reduction accounting.
#include <gtest/gtest.h>

#include "common/prng.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"
#include "netlist/optimize.h"
#include "netlist_oracle.h"

namespace aad::netlist {
namespace {

void expect_equivalent(const Netlist& original, int cycles,
                       std::uint64_t seed) {
  const Netlist optimized = optimize(original);
  Simulator a(original);
  Simulator b(optimized);
  Prng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    std::vector<bool> in(original.input_bit_count());
    for (auto&& bit : in) bit = rng.next_bool(0.5);
    ASSERT_EQ(a.step(in), b.step(in))
        << original.name() << " diverged after optimization, cycle " << c;
  }
}

struct GeneratorCase {
  const char* label;
  Netlist (*build)();
};

Netlist build_adder() { return make_ripple_adder(24); }
Netlist build_parity() { return make_parity(33); }
Netlist build_popcount() { return make_popcount(17); }
Netlist build_comparator() { return make_comparator(16); }
Netlist build_gray() { return make_gray_encoder(16); }
Netlist build_mul() { return make_array_multiplier(7); }
Netlist build_crc() { return make_crc32_datapath(); }
Netlist build_lfsr() { return make_lfsr(16, {0, 2, 3, 5}); }

class OptimizerEquivalence
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(OptimizerEquivalence, PreservesBehaviour) {
  expect_equivalent(GetParam().build(), 40,
                    std::hash<std::string>{}(GetParam().label));
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, OptimizerEquivalence,
    ::testing::Values(GeneratorCase{"adder", build_adder},
                      GeneratorCase{"parity", build_parity},
                      GeneratorCase{"popcount", build_popcount},
                      GeneratorCase{"comparator", build_comparator},
                      GeneratorCase{"gray", build_gray},
                      GeneratorCase{"mul", build_mul},
                      GeneratorCase{"crc32", build_crc},
                      GeneratorCase{"lfsr", build_lfsr}),
    [](const ::testing::TestParamInfo<GeneratorCase>& info) {
      return info.param.label;
    });

TEST(Optimizer, ShrinksGeneratorNetlists) {
  // The generators splice in constants (carry-in 0, padding) and repeated
  // subexpressions; the optimizer must find some of it.
  for (auto build : {build_adder, build_comparator, build_mul}) {
    OptStats stats;
    const Netlist nl = build();
    optimize(nl, &stats);
    EXPECT_LT(stats.nodes_out, stats.nodes_in) << nl.name();
    EXPECT_GT(stats.constants_folded + stats.gates_merged +
                  stats.dead_removed,
              0u)
        << nl.name();
  }
}

TEST(Optimizer, ConstantFoldingRules) {
  Netlist nl("fold");
  const auto in = nl.add_input_port("in", 1);
  const NodeId zero = nl.add_const(false);
  const NodeId one = nl.add_const(true);
  nl.bind_output_port("and0", {nl.add_and(in[0], zero)});   // -> 0
  nl.bind_output_port("or1", {nl.add_or(in[0], one)});      // -> 1
  nl.bind_output_port("xor0", {nl.add_xor(in[0], zero)});   // -> in
  nl.bind_output_port("xor1", {nl.add_xor(in[0], one)});    // -> !in
  nl.bind_output_port("xx", {nl.add_xor(in[0], in[0])});    // -> 0
  nl.bind_output_port("mux", {nl.add_mux(zero, one, in[0])});  // -> in
  nl.validate();

  OptStats stats;
  const Netlist opt = optimize(nl, &stats);
  EXPECT_GE(stats.constants_folded, 5u);
  // Behaviour check over both input values.
  Simulator sim(opt);
  const auto out0 = sim.evaluate({false});
  EXPECT_EQ(out0, (std::vector<bool>{false, true, false, true, false, false}));
  const auto out1 = sim.evaluate({true});
  EXPECT_EQ(out1, (std::vector<bool>{false, true, true, false, false, true}));
}

TEST(Optimizer, StructuralHashingMergesDuplicates) {
  Netlist nl("dup");
  const auto in = nl.add_input_port("in", 2);
  // Same gate three times, two with swapped (commutative) fanins.
  const NodeId x1 = nl.add_and(in[0], in[1]);
  const NodeId x2 = nl.add_and(in[1], in[0]);
  const NodeId x3 = nl.add_and(in[0], in[1]);
  nl.bind_output_port("o", {nl.add_xor(nl.add_xor(x1, x2), x3)});
  nl.validate();

  OptStats stats;
  const Netlist opt = optimize(nl, &stats);
  EXPECT_GE(stats.gates_merged, 2u);
  // xor(x,x)=0 then xor(0,x)=x: the whole thing folds to and(in0,in1).
  Simulator sim(opt);
  EXPECT_TRUE(sim.evaluate({true, true})[0]);
  EXPECT_FALSE(sim.evaluate({true, false})[0]);
}

TEST(Optimizer, DeadCodeEliminated) {
  Netlist nl("dead");
  const auto in = nl.add_input_port("in", 2);
  const NodeId used = nl.add_and(in[0], in[1]);
  // A whole dead cone, including a dead DFF.
  const NodeId d1 = nl.add_or(in[0], in[1]);
  const NodeId d2 = nl.add_xor(d1, in[0]);
  nl.add_dff(d2);
  nl.bind_output_port("o", {used});
  nl.validate();

  OptStats stats;
  const Netlist opt = optimize(nl, &stats);
  EXPECT_GE(stats.dead_removed, 3u);
  EXPECT_EQ(opt.dff_count(), 0u);
  expect_equivalent(nl, 10, 5);
}

TEST(Optimizer, PortsArePreservedExactly) {
  const Netlist nl = make_comparator(8);
  const Netlist opt = optimize(nl);
  ASSERT_EQ(opt.input_ports().size(), nl.input_ports().size());
  ASSERT_EQ(opt.output_ports().size(), nl.output_ports().size());
  for (std::size_t i = 0; i < nl.input_ports().size(); ++i) {
    EXPECT_EQ(opt.input_ports()[i].name, nl.input_ports()[i].name);
    EXPECT_EQ(opt.input_ports()[i].bits.size(),
              nl.input_ports()[i].bits.size());
  }
  for (std::size_t i = 0; i < nl.output_ports().size(); ++i)
    EXPECT_EQ(opt.output_ports()[i].name, nl.output_ports()[i].name);
}

TEST(Optimizer, MappedFootprintShrinks) {
  // The end-to-end payoff: optimized netlists map to fewer (or equal) LUTs.
  for (auto build : {build_adder, build_mul, build_crc}) {
    const Netlist nl = build();
    const auto raw = map_to_luts(nl);
    const auto opt = map_to_luts(optimize(nl));
    EXPECT_LE(opt.lut_count(), raw.lut_count()) << nl.name();
  }
}

TEST(Optimizer, IdempotentAtFixedPoint) {
  const Netlist once = optimize(make_array_multiplier(6));
  OptStats stats;
  const Netlist twice = optimize(once, &stats);
  EXPECT_EQ(twice.node_count(), once.node_count());
}

TEST(Optimizer, SequentialFeedbackSurvives) {
  // LFSR state must keep advancing identically after optimization.
  const Netlist nl = make_lfsr(12, {0, 3});
  const Netlist opt = optimize(nl);
  EXPECT_EQ(opt.dff_count(), 12u);
  expect_equivalent(nl, 64, 77);
}

}  // namespace
}  // namespace aad::netlist
