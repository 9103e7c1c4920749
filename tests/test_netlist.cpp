// Tests for the gate-level netlist IR, the golden simulator, and every
// circuit generator (differentially against plain C++ arithmetic).
#include <gtest/gtest.h>

#include "common/bitops.h"
#include "common/crc32.h"
#include "common/prng.h"
#include "netlist/generators.h"
#include "netlist/netlist.h"
#include "netlist_oracle.h"

namespace aad::netlist {
namespace {

std::vector<bool> to_bits(std::uint64_t value, unsigned width) {
  std::vector<bool> bits(width);
  for (unsigned i = 0; i < width; ++i) bits[i] = (value >> i) & 1u;
  return bits;
}

std::uint64_t from_bits(const std::vector<bool>& bits) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) v |= std::uint64_t{1} << i;
  return v;
}

std::vector<bool> concat(std::vector<bool> a, const std::vector<bool>& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

// --- IR basics ---------------------------------------------------------------

TEST(NetlistIr, ArityIsEnforced) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  EXPECT_THROW(nl.add_gate(GateKind::kAnd, {a}), Error);
  EXPECT_THROW(nl.add_gate(GateKind::kNot, {a, a}), Error);
  EXPECT_THROW(nl.add_gate(GateKind::kMux, {a, a}), Error);
}

TEST(NetlistIr, DanglingDffIsRejectedByValidate) {
  Netlist nl("t");
  const NodeId d = nl.add_dff();
  nl.bind_output_port("q", {d});
  EXPECT_THROW(nl.validate(), Error);
}

TEST(NetlistIr, CombinationalCycleDetected) {
  Netlist nl("t");
  const NodeId a = nl.add_input();
  nl.bind_input_port("a", {a});
  // Build x = and(a, y); y = or(x, a) -> cycle via manual fanin surgery is
  // impossible through the API (fanins must already exist), so use a DFF
  // loop which IS legal, then check validate accepts it.
  const NodeId q = nl.add_dff();
  const NodeId x = nl.add_and(a, q);
  nl.connect_dff(q, x);
  nl.bind_output_port("x", {x});
  EXPECT_NO_THROW(nl.validate());  // sequential loop is fine
}

TEST(NetlistIr, PortLookup) {
  Netlist nl("t");
  nl.add_input_port("data", 4);
  const auto& p = nl.input_port("data");
  EXPECT_EQ(p.bits.size(), 4u);
  EXPECT_THROW(nl.input_port("nope"), Error);
  EXPECT_EQ(nl.input_bit_count(), 4u);
}

TEST(NetlistIr, DffStateAdvancesOnStep) {
  // One-bit register: q' = d.
  Netlist nl("reg");
  const auto d = nl.add_input_port("d", 1);
  const NodeId q = nl.add_dff(d[0]);
  nl.bind_output_port("q", {q});
  nl.validate();
  Simulator sim(nl);
  // Output is pre-latch: first step shows reset state 0.
  EXPECT_EQ(sim.step({true})[0], false);
  EXPECT_EQ(sim.step({false})[0], true);   // captured the 1
  EXPECT_EQ(sim.step({false})[0], false);  // captured the 0
}

// --- generators, differential against arithmetic ------------------------------

class AdderWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(AdderWidths, MatchesIntegerAddition) {
  const unsigned width = GetParam();
  Netlist nl = make_ripple_adder(width);
  Simulator sim(nl);
  Prng rng(width);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t a = rng.next() & bits::low_mask(width);
    const std::uint64_t b = rng.next() & bits::low_mask(width);
    const auto out =
        sim.evaluate(concat(to_bits(a, width), to_bits(b, width)));
    const std::uint64_t sum = from_bits(out);
    EXPECT_EQ(sum, a + b) << "width=" << width << " a=" << a << " b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidths,
                         ::testing::Values(1u, 2u, 3u, 8u, 16u, 32u));

class ParityWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(ParityWidths, MatchesPopcountParity) {
  const unsigned width = GetParam();
  Netlist nl = make_parity(width);
  Simulator sim(nl);
  Prng rng(width * 7 + 1);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t v = rng.next() & bits::low_mask(width);
    const auto out = sim.evaluate(to_bits(v, width));
    EXPECT_EQ(out[0], (bits::popcount(v) & 1u) != 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ParityWidths,
                         ::testing::Values(1u, 2u, 5u, 8u, 32u, 64u));

class PopcountWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(PopcountWidths, MatchesPopcount) {
  const unsigned width = GetParam();
  Netlist nl = make_popcount(width);
  Simulator sim(nl);
  Prng rng(width * 13 + 5);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t v = rng.next() & bits::low_mask(width);
    EXPECT_EQ(from_bits(sim.evaluate(to_bits(v, width))), bits::popcount(v));
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, PopcountWidths,
                         ::testing::Values(1u, 3u, 8u, 15u, 32u));

class ComparatorWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(ComparatorWidths, MatchesIntegerCompare) {
  const unsigned width = GetParam();
  Netlist nl = make_comparator(width);
  Simulator sim(nl);
  Prng rng(width * 3 + 11);
  for (int trial = 0; trial < 80; ++trial) {
    // Mix equal pairs in (1/4 of trials) so eq gets exercised.
    std::uint64_t a = rng.next() & bits::low_mask(width);
    std::uint64_t b =
        (trial % 4 == 0) ? a : rng.next() & bits::low_mask(width);
    const auto out =
        sim.evaluate(concat(to_bits(a, width), to_bits(b, width)));
    EXPECT_EQ(out[0], a == b);
    EXPECT_EQ(out[1], a < b);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, ComparatorWidths,
                         ::testing::Values(1u, 4u, 8u, 32u));

TEST(GrayEncoder, MatchesXorShift) {
  Netlist nl = make_gray_encoder(16);
  Simulator sim(nl);
  for (std::uint64_t v : {0ull, 1ull, 0xFFFFull, 0xA5A5ull, 0x1234ull}) {
    EXPECT_EQ(from_bits(sim.evaluate(to_bits(v, 16))), v ^ (v >> 1));
  }
}

class MultiplierWidths : public ::testing::TestWithParam<unsigned> {};

TEST_P(MultiplierWidths, MatchesIntegerProduct) {
  const unsigned width = GetParam();
  Netlist nl = make_array_multiplier(width);
  Simulator sim(nl);
  Prng rng(width + 77);
  for (int trial = 0; trial < 50; ++trial) {
    const std::uint64_t a = rng.next() & bits::low_mask(width);
    const std::uint64_t b = rng.next() & bits::low_mask(width);
    EXPECT_EQ(from_bits(sim.evaluate(
                  concat(to_bits(a, width), to_bits(b, width)))),
              a * b);
  }
}

INSTANTIATE_TEST_SUITE_P(Widths, MultiplierWidths,
                         ::testing::Values(1u, 2u, 4u, 8u));

TEST(Crc32Datapath, MatchesSoftwareCrc32) {
  Netlist nl = make_crc32_datapath();
  Simulator sim(nl);
  const std::string msg = "123456789";
  for (char ch : msg) {
    auto in = to_bits(static_cast<std::uint8_t>(ch), 8);
    in.push_back(true);  // valid
    sim.step(in);
  }
  std::vector<bool> drain(9, false);
  const auto out = sim.step(drain);
  EXPECT_EQ(from_bits(out), 0xCBF43926u);
}

TEST(Crc32Datapath, ValidLowHoldsState) {
  Netlist nl = make_crc32_datapath();
  Simulator sim(nl);
  auto in = to_bits(0xAB, 8);
  in.push_back(true);
  sim.step(in);
  std::vector<bool> idle(9, false);
  const auto after_one = sim.step(idle);
  const auto after_two = sim.step(idle);  // more idle cycles change nothing
  EXPECT_EQ(after_one, after_two);
}

TEST(Crc32Datapath, IncrementalOverRandomData) {
  Netlist nl = make_crc32_datapath();
  Simulator sim(nl);
  Prng rng(99);
  Bytes data(64);
  for (auto& b : data) b = static_cast<Byte>(rng.next());
  for (Byte b : data) {
    auto in = to_bits(b, 8);
    in.push_back(true);
    sim.step(in);
  }
  const auto out = sim.step(std::vector<bool>(9, false));
  EXPECT_EQ(from_bits(out), Crc32::compute(data));
}

TEST(Lfsr, LoadThenShiftMatchesReference) {
  const std::vector<unsigned> taps = {0, 1, 21, 31};
  Netlist nl = make_lfsr(32, taps);
  Simulator sim(nl);
  const std::uint32_t seed = 0xACE1u;

  auto ref_step = [&](std::uint32_t s) {
    std::uint32_t fb = 0;
    for (unsigned t : taps) fb ^= (s >> t) & 1u;
    return (s >> 1) | (fb << 31);
  };

  // Load.
  auto in = to_bits(seed, 32);
  in.push_back(true);
  sim.step(in);
  // Shift 100 and compare state each cycle (output is pre-latch).
  std::uint32_t expect = seed;
  std::vector<bool> shift(33, false);
  for (int i = 0; i < 100; ++i) {
    const auto out = sim.step(shift);
    EXPECT_EQ(from_bits(out), expect) << "at cycle " << i;
    expect = ref_step(expect);
  }
}

TEST(Lfsr, RejectsBadTaps) {
  EXPECT_THROW(make_lfsr(8, {9}), Error);
  EXPECT_THROW(make_lfsr(8, {}), Error);
}

TEST(Generators, GateCountsAreReasonable) {
  // Smoke budget check: the CRC datapath should map to a few hundred gates,
  // not thousands (inverter folding and buffer elision keep it lean later).
  const Netlist crc = make_crc32_datapath();
  EXPECT_GT(crc.logic_gate_count(), 100u);
  EXPECT_LT(crc.logic_gate_count(), 2000u);
  EXPECT_EQ(crc.dff_count(), 32u);
}

}  // namespace
}  // namespace aad::netlist
