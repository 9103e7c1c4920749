// Tests for the LUT4 technology mapper and the LutNetwork executor:
// differential equivalence (gate-level Simulator vs mapped LutExecutor) on
// every generator, mapper statistics, and structural validation.
#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/prng.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"
#include "netlist_oracle.h"

namespace aad::netlist {
namespace {

std::vector<bool> random_bits(std::size_t n, Prng& rng) {
  std::vector<bool> bits(n);
  for (auto&& b : bits) b = rng.next_bool(0.5);
  return bits;
}

/// Step both implementations in lock-step over random stimuli and compare
/// every output every cycle.
void expect_equivalent(const Netlist& nl, int cycles, std::uint64_t seed) {
  const LutNetwork mapped = map_to_luts(nl);
  Simulator golden(nl);
  LutExecutor executor(mapped);
  Prng rng(seed);
  for (int c = 0; c < cycles; ++c) {
    const auto in = random_bits(nl.input_bit_count(), rng);
    const auto expect = golden.step(in);
    const auto got = executor.step(in);
    ASSERT_EQ(expect, got) << nl.name() << " diverged at cycle " << c;
  }
}

struct GeneratorCase {
  const char* label;
  Netlist (*build)();
};

Netlist build_adder() { return make_ripple_adder(16); }
Netlist build_parity() { return make_parity(24); }
Netlist build_popcount() { return make_popcount(16); }
Netlist build_comparator() { return make_comparator(12); }
Netlist build_gray() { return make_gray_encoder(20); }
Netlist build_mul() { return make_array_multiplier(6); }
Netlist build_crc() { return make_crc32_datapath(); }
Netlist build_lfsr() { return make_lfsr(24, {0, 3, 5, 23}); }

class MapperEquivalence
    : public ::testing::TestWithParam<GeneratorCase> {};

TEST_P(MapperEquivalence, MatchesGateLevelSimulation) {
  const auto& param = GetParam();
  expect_equivalent(param.build(), /*cycles=*/40,
                    /*seed=*/std::hash<std::string>{}(param.label));
}

INSTANTIATE_TEST_SUITE_P(
    AllGenerators, MapperEquivalence,
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

TEST(MapperStats, InvertersAreFolded) {
  // The CRC datapath is full of NOTs (state recoding); none may survive.
  MapStats stats;
  const LutNetwork mapped = map_to_luts(make_crc32_datapath(), &stats);
  EXPECT_GT(stats.inverters_folded, 0u);
  EXPECT_GT(stats.buffers_elided, 0u);
  EXPECT_EQ(mapped.input_width(), 9u);
  EXPECT_EQ(mapped.output_width(), 32u);
  EXPECT_EQ(mapped.ff_count(), 32u);
}

TEST(MapperStats, LutCountNeverExceedsGateCount) {
  // Each logic gate maps to at most one LUT, plus output pass-throughs.
  const Netlist nl = make_ripple_adder(32);
  MapStats stats;
  const LutNetwork mapped = map_to_luts(nl, &stats);
  EXPECT_LE(stats.luts_out,
            stats.gates_in + stats.passthroughs_added);
  EXPECT_GT(mapped.lut_count(), 0u);
}

TEST(MapperOutputs, ConstantAndInputDrivenOutputs) {
  // Outputs driven by a constant, a raw input, and a negated input all need
  // pass-through LUTs.
  Netlist nl("edge");
  const auto in = nl.add_input_port("in", 1);
  const NodeId k1 = nl.add_const(true);
  const NodeId inv = nl.add_not(in[0]);
  nl.bind_output_port("konst", {k1});
  nl.bind_output_port("pass", {in[0]});
  nl.bind_output_port("npass", {inv});
  nl.validate();

  MapStats stats;
  const LutNetwork mapped = map_to_luts(nl, &stats);
  EXPECT_EQ(stats.passthroughs_added, 3u);

  LutExecutor ex(mapped);
  auto out = ex.step({false});
  EXPECT_TRUE(out[0]);    // constant 1
  EXPECT_FALSE(out[1]);   // passes 0
  EXPECT_TRUE(out[2]);    // inverted 0
  out = ex.step({true});
  EXPECT_TRUE(out[1]);
  EXPECT_FALSE(out[2]);
}

TEST(MapperOutputs, SharedDriverGetsSecondPassthrough) {
  Netlist nl("shared");
  const auto in = nl.add_input_port("in", 2);
  const NodeId x = nl.add_xor(in[0], in[1]);
  nl.bind_output_port("a", {x});
  nl.bind_output_port("b", {x});
  nl.validate();
  const LutNetwork mapped = map_to_luts(nl);
  LutExecutor ex(mapped);
  const auto out = ex.step({true, false});
  EXPECT_TRUE(out[0]);
  EXPECT_TRUE(out[1]);
}

TEST(LutNetworkValidate, ForwardCombRefRejected) {
  LutNetwork net("bad", 1, 1);
  LutSlot s0;
  s0.truth = 0xAAAA;
  s0.pins[0] = NetRef{NetKind::kLutComb, 1};  // forward, no FF
  s0.is_output = true;
  s0.output_bit = 0;
  net.add_slot(s0);
  LutSlot s1;
  s1.pins[0] = NetRef{NetKind::kPrimary, 0};
  net.add_slot(s1);
  EXPECT_THROW(net.validate(), Error);
}

TEST(LutNetworkValidate, RegRefMustTargetFf) {
  LutNetwork net("bad", 1, 1);
  LutSlot s0;
  s0.pins[0] = NetRef{NetKind::kPrimary, 0};
  net.add_slot(s0);
  LutSlot s1;
  s1.truth = 0xAAAA;
  s1.pins[0] = NetRef{NetKind::kLutReg, 0};  // slot 0 has no FF
  s1.is_output = true;
  net.add_slot(s1);
  EXPECT_THROW(net.validate(), Error);
}

TEST(LutNetworkValidate, MissingOutputDriverRejected) {
  LutNetwork net("bad", 1, 2);
  LutSlot s0;
  s0.truth = 0xAAAA;
  s0.pins[0] = NetRef{NetKind::kPrimary, 0};
  s0.is_output = true;
  s0.output_bit = 0;
  net.add_slot(s0);  // bit 1 never driven
  EXPECT_THROW(net.validate(), Error);
}

TEST(LutNetworkValidate, DoubleDriverRejected) {
  LutNetwork net("bad", 1, 1);
  for (int i = 0; i < 2; ++i) {
    LutSlot s;
    s.truth = 0xAAAA;
    s.pins[0] = NetRef{NetKind::kPrimary, 0};
    s.is_output = true;
    s.output_bit = 0;
    net.add_slot(s);
  }
  EXPECT_THROW(net.validate(), Error);
}

TEST(EvalTruth, TruthTableIndexing) {
  // truth = f(p0) = p0 -> 0xAAAA.
  EXPECT_FALSE(eval_truth(0xAAAA, false, false, false, false));
  EXPECT_TRUE(eval_truth(0xAAAA, true, false, false, false));
  // xor(p0,p1) = 0x6666.
  EXPECT_TRUE(eval_truth(0x6666, true, false, true, true));
  EXPECT_FALSE(eval_truth(0x6666, true, true, false, false));
}

TEST(LutExecutor, ResetClearsState) {
  Netlist nl = make_lfsr(8, {0, 2});
  const LutNetwork mapped = map_to_luts(nl);
  LutExecutor ex(mapped);
  std::vector<bool> load(9, false);
  load[3] = true;
  load[8] = true;  // load bit
  ex.step(load);
  ex.reset();
  // After reset the registered state reads as zero again.
  const auto out = ex.step(std::vector<bool>(9, false));
  EXPECT_EQ(std::count(out.begin(), out.end(), true), 0);
}

}  // namespace
}  // namespace aad::netlist
