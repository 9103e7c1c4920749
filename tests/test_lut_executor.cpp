// Differential tests for the compiled LutExecutor.  Every catalog netlist
// kernel is built the way the MCU runs it — bitstream, configured into
// scattered fabric frames, extracted back out of the configuration plane —
// and the compiled executor is diffed against the switch-based oracle
// (tests/lut_oracle.h) and the gate-level netlist::Simulator: exhaustively
// where the input bus is at most 16 bits wide, over seeded random vectors
// otherwise, and over multi-cycle sequences with a mid-sequence reset() for
// the sequential kernels.  Seeded random networks, whose FF D-paths read
// inputs, Qs and forward comb outputs directly, are diffed against the oracle
// too.  The packed-bus and vector<bool> entry points must agree with each
// other cycle by cycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algorithms/kernels.h"
#include "common/prng.h"
#include "fabric/fabric.h"
#include "lut_oracle.h"
#include "netlist/generators.h"
#include "netlist_oracle.h"

namespace aad::netlist {
namespace {

using algorithms::KernelId;
using algorithms::KernelSpec;

// The gate-level source of each catalog netlist kernel (kernels.cpp maps
// the same generators; lfsr32's taps are the catalog's).
Netlist gate_level(KernelId id) {
  switch (id) {
    case KernelId::kAdder32: return make_ripple_adder(32);
    case KernelId::kParity32: return make_parity(32);
    case KernelId::kPopcount32: return make_popcount(32);
    case KernelId::kComparator32: return make_comparator(32);
    case KernelId::kGray32: return make_gray_encoder(32);
    case KernelId::kMul8: return make_array_multiplier(8);
    case KernelId::kCrc32: return make_crc32_datapath();
    case KernelId::kLfsr32: return make_lfsr(32, {0, 1, 21, 31});
    default: break;
  }
  ADD_FAILURE() << "no gate-level source for kernel "
                << static_cast<unsigned>(id);
  return Netlist("none");
}

std::vector<const KernelSpec*> netlist_kernels() {
  std::vector<const KernelSpec*> out;
  for (const KernelSpec& s : algorithms::catalog())
    if (s.kind == bitstream::FunctionKind::kNetlist) out.push_back(&s);
  return out;
}

// Configure the kernel's bitstream into scattered frames and extract the
// network back out of the configuration plane, as Mcu::executor_for does.
LutNetwork from_plane(const KernelSpec& spec) {
  fabric::Fabric fabric;
  const auto bs = spec.make_bitstream(fabric.geometry());
  std::vector<fabric::FrameIndex> frames;
  for (std::size_t i = 0; i < bs.frames.size(); ++i) {
    frames.push_back(static_cast<fabric::FrameIndex>(
        (7 + 13 * i) % fabric.geometry().frame_count));
    fabric.configure_frame(frames.back(), bs.frames[i]);
  }
  return fabric.extract_network(frames, spec.name, spec.input_width,
                                spec.output_width);
}

Bytes pack(const std::vector<bool>& bits) {
  Bytes out((bits.size() + 7) / 8, 0);
  for (std::size_t i = 0; i < bits.size(); ++i)
    if (bits[i]) out[i / 8] = static_cast<Byte>(out[i / 8] | (1u << (i % 8)));
  return out;
}

std::vector<bool> unpack(ByteSpan bytes, std::size_t bit_count) {
  std::vector<bool> bits(bit_count);
  for (std::size_t i = 0; i < bit_count; ++i)
    bits[i] = (bytes[i / 8] >> (i % 8)) & 1u;
  return bits;
}

std::vector<bool> bits_of(std::uint64_t value, std::size_t width) {
  std::vector<bool> bits(width);
  for (std::size_t i = 0; i < width; ++i) bits[i] = (value >> i) & 1u;
  return bits;
}

std::vector<bool> random_bits(std::size_t width, Prng& rng) {
  std::vector<bool> bits(width);
  for (auto&& b : bits) b = rng.next_bool(0.5);
  return bits;
}

// The four implementations of one kernel, stepped in lock-step: the
// compiled executor through its packed entry point, a second compiled
// executor through the vector<bool> adapter, the oracle and the gate-level
// simulator.  The oracle borrows `network`, so the harness owns it.
class LockStep {
 public:
  explicit LockStep(const KernelSpec& spec)
      : network_(from_plane(spec)),
        gates_(gate_level(spec.id)),
        packed_(network_),
        unpacked_(network_),
        oracle_(network_),
        golden_(gates_) {}

  void step(const std::vector<bool>& in, const char* what, std::size_t n) {
    Bytes out(packed_.output_bytes(), 0xFF);
    packed_.step(pack(in), out);
    const auto expect = oracle_.step(in);
    ASSERT_EQ(unpack(out, network_.output_width()), expect)
        << network_.name() << ' ' << what << ' ' << n << ": packed";
    ASSERT_EQ(unpacked_.step(in), expect)
        << network_.name() << ' ' << what << ' ' << n << ": vector<bool>";
    ASSERT_EQ(golden_.step(in), expect)
        << network_.name() << ' ' << what << ' ' << n << ": gate level";
    // Padding bits above the output bus stay zero.
    if (network_.output_width() % 8 != 0) {
      ASSERT_EQ(out.back() >> (network_.output_width() % 8), 0)
          << network_.name() << ' ' << what << ' ' << n;
    }
    ASSERT_EQ(packed_.cycle_count(), oracle_.cycle_count());
  }

  void reset() {
    packed_.reset();
    unpacked_.reset();
    oracle_.reset();
    golden_.reset();
  }

  std::size_t width() const { return network_.input_width(); }

 private:
  LutNetwork network_;
  Netlist gates_;
  LutExecutor packed_;
  LutExecutor unpacked_;
  oracle::LutExecutor oracle_;
  Simulator golden_;
};

TEST(CompiledExecutor, CatalogHasEightNetlistKernels) {
  EXPECT_EQ(netlist_kernels().size(), 8u);
}

TEST(CompiledExecutor, ExhaustiveOnNarrowBuses) {
  for (const KernelSpec* spec : netlist_kernels()) {
    LockStep lanes(*spec);
    if (lanes.width() > 16) continue;
    SCOPED_TRACE(spec->name);
    const std::uint64_t vectors = std::uint64_t{1} << lanes.width();
    for (std::uint64_t v = 0; v < vectors; ++v) {
      // Every vector as the first cycle out of reset; a second, all-zero
      // cycle exposes whatever the first one latched.
      lanes.reset();
      ASSERT_NO_FATAL_FAILURE(
          lanes.step(bits_of(v, lanes.width()), "vector", v));
      ASSERT_NO_FATAL_FAILURE(
          lanes.step(std::vector<bool>(lanes.width()), "after vector", v));
    }
  }
}

TEST(CompiledExecutor, RandomVectorsOnWideBuses) {
  for (const KernelSpec* spec : netlist_kernels()) {
    LockStep lanes(*spec);
    if (lanes.width() <= 16) continue;
    SCOPED_TRACE(spec->name);
    Prng rng(0x1075 + static_cast<std::uint64_t>(spec->id));
    for (std::size_t n = 0; n < 2000; ++n)
      ASSERT_NO_FATAL_FAILURE(
          lanes.step(random_bits(lanes.width(), rng), "vector", n));
  }
}

TEST(CompiledExecutor, SequencesWithMidSequenceReset) {
  for (const KernelId id : {KernelId::kCrc32, KernelId::kLfsr32}) {
    const KernelSpec& spec = algorithms::spec(id);
    SCOPED_TRACE(spec.name);
    LockStep lanes(spec);
    Prng rng(0x5E0 + static_cast<std::uint64_t>(id));
    for (int sequence = 0; sequence < 40; ++sequence) {
      const std::size_t length = 8 + rng.next_below(56);
      const std::size_t reset_at = rng.next_below(length);
      for (std::size_t c = 0; c < length; ++c) {
        if (c == reset_at) lanes.reset();
        // Random beats: valid / load is high about half the time.
        ASSERT_NO_FATAL_FAILURE(
            lanes.step(random_bits(lanes.width(), rng), "cycle", c));
      }
    }
  }
}

// A random well-formed network: FF D-paths may read primary inputs, Qs and
// comb outputs forward of their slot directly, which the mapped catalog
// kernels (FF LUTs that buffer a comb slot) never do.
LutNetwork random_network(Prng& rng) {
  const std::size_t inputs = 1 + rng.next_below(12);
  const std::size_t slots = 1 + rng.next_below(40);
  const std::size_t outputs = 1 + rng.next_below(slots);
  LutNetwork net("random", inputs, outputs);
  std::vector<bool> has_ff(slots);
  std::vector<std::uint32_t> ffs;
  for (std::uint32_t i = 0; i < slots; ++i) {
    has_ff[i] = rng.next_bool(0.3);
    if (has_ff[i]) ffs.push_back(i);
  }
  for (std::uint32_t i = 0; i < slots; ++i) {
    LutSlot slot;
    slot.truth = static_cast<std::uint16_t>(rng.next_below(1u << 16));
    slot.has_ff = has_ff[i];
    for (NetRef& pin : slot.pins) {
      const std::uint32_t comb_range = has_ff[i] ? slots : i;
      switch (rng.next_below(6)) {
        case 0:
          pin = NetRef{rng.next_bool(0.5) ? NetKind::kUnused : NetKind::kConst0,
                       0};
          break;
        case 1: pin = NetRef{NetKind::kConst1, 0}; break;
        case 2:
        case 3:
          pin = NetRef{NetKind::kPrimary,
                       static_cast<std::uint32_t>(rng.next_below(inputs))};
          break;
        case 4:
          if (comb_range > 0)
            pin = NetRef{NetKind::kLutComb, static_cast<std::uint32_t>(
                                                rng.next_below(comb_range))};
          break;
        default:
          if (!ffs.empty())
            pin = NetRef{NetKind::kLutReg, ffs[rng.next_below(ffs.size())]};
          break;
      }
    }
    if (i < outputs) {  // outputs bound to the first slots, bits shuffled
      slot.is_output = true;
      slot.output_bit = static_cast<std::uint16_t>(i);
    }
    net.add_slot(slot);
  }
  for (std::size_t i = outputs; i-- > 1;) {
    const std::size_t j = rng.next_below(i + 1);
    std::swap(net.slot(static_cast<std::uint32_t>(i)).output_bit,
              net.slot(static_cast<std::uint32_t>(j)).output_bit);
  }
  net.validate();
  return net;
}

TEST(CompiledExecutor, RandomNetworksMatchOracle) {
  Prng rng(0xC0DE);
  for (int trial = 0; trial < 300; ++trial) {
    const LutNetwork net = random_network(rng);
    LutExecutor packed(net);
    LutExecutor unpacked(net);
    oracle::LutExecutor golden(net);
    const std::size_t cycles = 4 + rng.next_below(28);
    const std::size_t reset_at = rng.next_below(cycles);
    for (std::size_t c = 0; c < cycles; ++c) {
      if (c == reset_at) {
        packed.reset();
        unpacked.reset();
        golden.reset();
      }
      const auto in = random_bits(net.input_width(), rng);
      Bytes out(packed.output_bytes());
      packed.step(pack(in), out);
      const auto expect = golden.step(in);
      ASSERT_EQ(unpack(out, net.output_width()), expect)
          << "trial " << trial << " cycle " << c << ": packed";
      ASSERT_EQ(unpacked.step(in), expect)
          << "trial " << trial << " cycle " << c << ": vector<bool>";
    }
  }
}

TEST(CompiledExecutor, PackedBusFraming) {
  // mul8: 16-bit input a||b, 16-bit product, LSB-first.
  LutExecutor mul(from_plane(algorithms::spec(KernelId::kMul8)));
  Bytes out(mul.output_bytes());
  const Byte ab[2] = {13, 11};
  mul.step(ab, out);
  EXPECT_EQ(out, (Bytes{143, 0}));
  // A short input is zero-padded: b reads as 0.
  const Byte a_only[1] = {200};
  mul.step(a_only, out);
  EXPECT_EQ(out, (Bytes{0, 0}));
  // More bytes than the bus holds, or an output buffer of the wrong size,
  // is an error.
  const Byte three[3] = {1, 2, 3};
  EXPECT_THROW(mul.step(three, out), Error);
  Bytes short_out(1);
  EXPECT_THROW(mul.step(ab, short_out), Error);
  // An empty output span skips sampling but still clocks the network.
  const std::size_t cycles = mul.cycle_count();
  mul.step(ab, {});
  EXPECT_EQ(mul.cycle_count(), cycles + 1);

  // crc32's 9-bit bus: bits past the bus in the last byte are ignored.
  LutExecutor a(from_plane(algorithms::spec(KernelId::kCrc32)));
  LutExecutor b(from_plane(algorithms::spec(KernelId::kCrc32)));
  Bytes out_a(a.output_bytes()), out_b(b.output_bytes());
  for (Byte data : {Byte{0x31}, Byte{0x32}, Byte{0x33}}) {
    const Byte clean[2] = {data, 0x01};
    const Byte noisy[2] = {data, 0xFF};
    a.step(clean, out_a);
    b.step(noisy, out_b);
    EXPECT_EQ(out_a, out_b);
  }
}

TEST(CompiledExecutor, OwnsItsProgram) {
  // Built from a temporary network: nothing may dangle once it is gone.
  LutExecutor ex(from_plane(algorithms::spec(KernelId::kAdder32)));
  const Byte in[8] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01, 0, 0, 0};
  Bytes out(ex.output_bytes());
  ex.step(in, out);
  EXPECT_EQ(out, (Bytes{0, 0, 0, 0, 1}));
}

}  // namespace
}  // namespace aad::netlist
