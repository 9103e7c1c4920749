#include "algorithms/kernels.h"

#include <cmath>

#include "algorithms/aes.h"
#include "algorithms/bignum.h"
#include "algorithms/des.h"
#include "algorithms/fft.h"
#include "algorithms/fir.h"
#include "algorithms/matmul.h"
#include "algorithms/md5.h"
#include "algorithms/sha1.h"
#include "algorithms/sha256.h"
#include "algorithms/xtea.h"
#include "bitstream/synth.h"
#include "common/bitops.h"
#include "common/crc32.h"
#include "common/error.h"
#include "common/prng.h"
#include "netlist/generators.h"
#include "netlist/lutmap.h"
#include "netlist/optimize.h"

namespace aad::algorithms {
namespace {

using bitstream::Bitstream;
using bitstream::FunctionKind;
using fabric::FrameGeometry;

constexpr double kHostGhz = 3.0;  // 2005-era desktop CPU for the baseline

sim::SimTime host_ns_from_cycles(double cycles) {
  return sim::SimTime::ns(cycles / kHostGhz);
}

std::uint32_t load_le32(ByteSpan data, std::size_t offset) {
  return static_cast<std::uint32_t>(data[offset]) |
         (static_cast<std::uint32_t>(data[offset + 1]) << 8) |
         (static_cast<std::uint32_t>(data[offset + 2]) << 16) |
         (static_cast<std::uint32_t>(data[offset + 3]) << 24);
}

void store_le32(Bytes& out, std::uint32_t v) {
  out.push_back(static_cast<Byte>(v));
  out.push_back(static_cast<Byte>(v >> 8));
  out.push_back(static_cast<Byte>(v >> 16));
  out.push_back(static_cast<Byte>(v >> 24));
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Prng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<Byte>(rng.next());
  return out;
}

// --- LFSR reference (must mirror make_lfsr's shift direction/taps) ---------

constexpr unsigned kLfsrTaps[] = {0, 1, 21, 31};

std::uint32_t lfsr_step(std::uint32_t state) {
  std::uint32_t fb = 0;
  for (unsigned t : kLfsrTaps) fb ^= (state >> t) & 1u;
  return (state >> 1) | (fb << 31);
}

// --- custom netlist drivers --------------------------------------------------

HardwareResult crc32_driver(netlist::LutExecutor& executor, ByteSpan input) {
  Byte bus[2] = {0, 1};  // byte[8] + valid[1]
  for (Byte byte : input) {
    bus[0] = byte;
    executor.step(bus, {});
  }
  HardwareResult hw{Bytes(executor.output_bytes()),
                    static_cast<std::int64_t>(input.size()) + 1};
  executor.step({}, hw.output);  // drain cycle, valid = 0
  return hw;
}

HardwareResult lfsr32_driver(netlist::LutExecutor& executor, ByteSpan input) {
  AAD_REQUIRE(input.size() == 8, "lfsr32 expects seed||steps");
  const std::uint32_t steps = load_le32(input, 4);
  AAD_REQUIRE(steps <= 1u << 16, "lfsr32 steps capped at 65536");

  const Byte load[5] = {input[0], input[1], input[2], input[3], 1};
  executor.step(load, {});  // init[32] + load[1]
  for (std::uint32_t i = 0; i < steps; ++i) executor.step({}, {});
  HardwareResult hw{Bytes(executor.output_bytes()),
                    static_cast<std::int64_t>(steps) + 2};
  executor.step({}, hw.output);  // pre-latch read
  return hw;
}

// --- netlist bitstream builders ---------------------------------------------

Bitstream netlist_bitstream(const netlist::Netlist& nl, KernelId id,
                            const FrameGeometry& geometry) {
  const auto network = netlist::map_to_luts(netlist::optimize(nl));
  Bitstream bs = bitstream::from_network(network, geometry);
  bs.info.kernel_id = function_id(id);
  return bs;
}

Bitstream behavioral_bitstream(const std::string& name, KernelId id,
                               std::uint32_t iw, std::uint32_t ow,
                               unsigned frames, double density,
                               const FrameGeometry& geometry) {
  bitstream::SynthParams params;
  params.frames = frames;
  params.density = density;
  params.seed = function_id(id);
  return bitstream::synthesize_behavioral(name, function_id(id), iw, ow,
                                          geometry, params);
}

// --- catalog construction ---------------------------------------------------

std::vector<KernelSpec> build_catalog() {
  std::vector<KernelSpec> out;
  const FrameGeometry default_geometry;

  auto add = [&](KernelSpec spec) {
    if (spec.nominal_frames == 0) {
      // Netlist kernels: measure the real footprint on default geometry.
      spec.nominal_frames = static_cast<unsigned>(
          spec.make_bitstream(default_geometry).frame_count());
    }
    out.push_back(std::move(spec));
  };

  // ---- netlist kernels -----------------------------------------------------

  add(KernelSpec{
      .id = KernelId::kAdder32,
      .name = "add32",
      .kind = FunctionKind::kNetlist,
      .input_width = 64,
      .output_width = 33,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 8, "add32 expects a||b (8 bytes)");
            const std::uint64_t sum =
                static_cast<std::uint64_t>(load_le32(in, 0)) + load_le32(in, 4);
            Bytes out;
            store_le32(out, static_cast<std::uint32_t>(sum));
            out.push_back(static_cast<Byte>(sum >> 32));
            return out;
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(2); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_ripple_adder(32),
                                     KernelId::kAdder32, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(8, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kParity32,
      .name = "parity32",
      .kind = FunctionKind::kNetlist,
      .input_width = 32,
      .output_width = 1,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 4, "parity32 expects 4 bytes");
            const unsigned p = bits::popcount(load_le32(in, 0)) & 1u;
            return Bytes{static_cast<Byte>(p)};
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(1); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_parity(32),
                                     KernelId::kParity32, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(4, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kPopcount32,
      .name = "popcount32",
      .kind = FunctionKind::kNetlist,
      .input_width = 32,
      .output_width = 6,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 4, "popcount32 expects 4 bytes");
            return Bytes{static_cast<Byte>(bits::popcount(load_le32(in, 0)))};
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(1); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_popcount(32),
                                     KernelId::kPopcount32, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(4, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kComparator32,
      .name = "cmp32",
      .kind = FunctionKind::kNetlist,
      .input_width = 64,
      .output_width = 2,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 8, "cmp32 expects a||b (8 bytes)");
            const std::uint32_t a = load_le32(in, 0);
            const std::uint32_t b = load_le32(in, 4);
            const unsigned eq = a == b ? 1u : 0u;
            const unsigned lt = a < b ? 1u : 0u;
            return Bytes{static_cast<Byte>(eq | (lt << 1))};
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(1); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_comparator(32),
                                     KernelId::kComparator32, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(8, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kGray32,
      .name = "gray32",
      .kind = FunctionKind::kNetlist,
      .input_width = 32,
      .output_width = 32,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 4, "gray32 expects 4 bytes");
            const std::uint32_t v = load_le32(in, 0);
            Bytes out;
            store_le32(out, v ^ (v >> 1));
            return out;
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(1); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_gray_encoder(32),
                                     KernelId::kGray32, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(4, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kMul8,
      .name = "mul8",
      .kind = FunctionKind::kNetlist,
      .input_width = 16,
      .output_width = 16,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 2, "mul8 expects a||b (2 bytes)");
            const std::uint16_t p = static_cast<std::uint16_t>(
                static_cast<unsigned>(in[0]) * in[1]);
            return Bytes{static_cast<Byte>(p), static_cast<Byte>(p >> 8)};
          },
      .fabric_cycles = nullptr,
      .host_time = [](std::size_t) { return host_ns_from_cycles(1); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_array_multiplier(8),
                                     KernelId::kMul8, g);
          },
      .make_input = [](std::size_t, std::uint64_t seed) {
        return random_bytes(2, seed);
      }});

  add(KernelSpec{
      .id = KernelId::kCrc32,
      .name = "crc32",
      .kind = FunctionKind::kNetlist,
      .input_width = 9,  // byte[8] + valid[1]
      .output_width = 32,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            Bytes out;
            store_le32(out, Crc32::compute(in));
            return out;
          },
      .fabric_cycles = nullptr,
      .driver = crc32_driver,
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(5.0 * static_cast<double>(bytes));
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(netlist::make_crc32_datapath(),
                                     KernelId::kCrc32, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(std::max<std::size_t>(1, blocks), seed);
      }});

  add(KernelSpec{
      .id = KernelId::kLfsr32,
      .name = "lfsr32",
      .kind = FunctionKind::kNetlist,
      .input_width = 33,  // init[32] + load[1]
      .output_width = 32,
      .nominal_frames = 0,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() == 8, "lfsr32 expects seed||steps");
            std::uint32_t state = load_le32(in, 0);
            const std::uint32_t steps = load_le32(in, 4);
            AAD_REQUIRE(steps <= 1u << 16, "lfsr32 steps capped at 65536");
            for (std::uint32_t i = 0; i < steps; ++i) state = lfsr_step(state);
            Bytes out;
            store_le32(out, state);
            return out;
          },
      .fabric_cycles = nullptr,
      .driver = lfsr32_driver,
      .host_time =
          [](std::size_t) { return host_ns_from_cycles(2.0 * 256); },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return netlist_bitstream(
                netlist::make_lfsr(32, {kLfsrTaps[0], kLfsrTaps[1],
                                        kLfsrTaps[2], kLfsrTaps[3]}),
                KernelId::kLfsr32, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        Bytes in = random_bytes(4, seed);
        store_le32(in, static_cast<std::uint32_t>(
                           std::max<std::size_t>(1, blocks)));
        return in;
      }});

  // ---- behavioral kernels --------------------------------------------------
  // Block layout conventions: ciphers take key || data; hashes take raw
  // data.  Cycle models assume the canonical FPGA micro-architecture named
  // in the comment.

  // AES-128: one round per cycle, pipelined across blocks.
  add(KernelSpec{
      .id = KernelId::kAes128,
      .name = "aes128",
      .kind = FunctionKind::kBehavioral,
      .input_width = 128,
      .output_width = 128,
      .nominal_frames = 12,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() >= 32 && (in.size() - 16) % 16 == 0,
                        "aes128 expects key(16) || blocks(16k)");
            const Aes128 aes(in.subspan(0, 16));
            return aes.encrypt_ecb(in.subspan(16));
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes - 16) / 16);
            return 11 + 10 + blocks;  // key schedule + pipeline fill + 1/cyc
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(28.0 * static_cast<double>(bytes - 16));
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("aes128", KernelId::kAes128, 128, 128,
                                        12, 0.85, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(16 + 16 * std::max<std::size_t>(1, blocks), seed);
      }});

  // DES: fully unrolled 16-stage pipeline, one block per cycle when full
  // (the standard FPGA implementation of this vintage).
  add(KernelSpec{
      .id = KernelId::kDes,
      .name = "des",
      .kind = FunctionKind::kBehavioral,
      .input_width = 64,
      .output_width = 64,
      .nominal_frames = 8,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() >= 16 && (in.size() - 8) % 8 == 0,
                        "des expects key(8) || blocks(8k)");
            const Des des(in.subspan(0, 8));
            return des.encrypt_ecb(in.subspan(8));
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes - 8) / 8);
            return 16 + 16 + blocks;  // key setup + pipeline fill + 1/cyc
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(60.0 * static_cast<double>(bytes - 8));
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("des", KernelId::kDes, 64, 64, 8,
                                        0.80, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(8 + 8 * std::max<std::size_t>(1, blocks), seed);
      }});

  // XTEA: 32-stage pipeline (one half-round pair per stage), one block per
  // cycle when full.
  add(KernelSpec{
      .id = KernelId::kXtea,
      .name = "xtea",
      .kind = FunctionKind::kBehavioral,
      .input_width = 64,
      .output_width = 64,
      .nominal_frames = 4,
      .software =
          [](ByteSpan in) {
            AAD_REQUIRE(in.size() >= 24 && (in.size() - 16) % 8 == 0,
                        "xtea expects key(16) || blocks(8k)");
            const Xtea xtea(in.subspan(0, 16));
            return xtea.encrypt_ecb(in.subspan(16));
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes - 16) / 8);
            return 4 + 32 + blocks;  // key setup + pipeline fill + 1/cyc
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(18.0 * static_cast<double>(bytes - 16));
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("xtea", KernelId::kXtea, 64, 64, 4,
                                        0.70, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(16 + 8 * std::max<std::size_t>(1, blocks), seed);
      }});

  // SHA-1: 80 rounds per 64-byte block, one round per cycle.
  add(KernelSpec{
      .id = KernelId::kSha1,
      .name = "sha1",
      .kind = FunctionKind::kBehavioral,
      .input_width = 32,
      .output_width = 32,
      .nominal_frames = 8,
      .software =
          [](ByteSpan in) {
            const auto d = Sha1::hash(in);
            return Bytes(d.begin(), d.end());
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes + 9 + 63) / 64);
            return 10 + 80 * blocks;
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(11.0 * static_cast<double>(bytes) + 500);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("sha1", KernelId::kSha1, 32, 32, 8,
                                        0.80, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(64 * std::max<std::size_t>(1, blocks), seed);
      }});

  // SHA-256: 64 rounds per block.
  add(KernelSpec{
      .id = KernelId::kSha256,
      .name = "sha256",
      .kind = FunctionKind::kBehavioral,
      .input_width = 32,
      .output_width = 32,
      .nominal_frames = 10,
      .software =
          [](ByteSpan in) {
            const auto d = Sha256::hash(in);
            return Bytes(d.begin(), d.end());
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes + 9 + 63) / 64);
            return 10 + 64 * blocks;
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(18.0 * static_cast<double>(bytes) + 600);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("sha256", KernelId::kSha256, 32, 32,
                                        10, 0.82, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(64 * std::max<std::size_t>(1, blocks), seed);
      }});

  // MD5: 64 steps per block.
  add(KernelSpec{
      .id = KernelId::kMd5,
      .name = "md5",
      .kind = FunctionKind::kBehavioral,
      .input_width = 32,
      .output_width = 32,
      .nominal_frames = 7,
      .software =
          [](ByteSpan in) {
            const auto d = Md5::hash(in);
            return Bytes(d.begin(), d.end());
          },
      .fabric_cycles =
          [](std::size_t bytes) {
            const std::int64_t blocks =
                static_cast<std::int64_t>((bytes + 9 + 63) / 64);
            return 8 + 64 * blocks;
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(7.0 * static_cast<double>(bytes) + 400);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("md5", KernelId::kMd5, 32, 32, 7,
                                        0.78, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(64 * std::max<std::size_t>(1, blocks), seed);
      }});

  // Matrix multiply: 16x16 systolic array, tiled.
  add(KernelSpec{
      .id = KernelId::kMatMul,
      .name = "matmul",
      .kind = FunctionKind::kBehavioral,
      .input_width = 256,
      .output_width = 512,
      .nominal_frames = 14,
      .software = [](ByteSpan in) { return matmul_bytes(in); },
      .fabric_cycles =
          [](std::size_t bytes) {
            const double n = std::sqrt(static_cast<double>(bytes) / 4.0);
            const double tiles = std::ceil(n / 16.0);
            return static_cast<std::int64_t>(tiles * tiles * tiles * 48.0) +
                   20;
          },
      .host_time =
          [](std::size_t bytes) {
            const double n = std::sqrt(static_cast<double>(bytes) / 4.0);
            return host_ns_from_cycles(1.6 * n * n * n + 200);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("matmul", KernelId::kMatMul, 256, 512,
                                        14, 0.90, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        // `blocks` is the matrix dimension n.
        const std::size_t n = std::max<std::size_t>(2, blocks);
        return random_bytes(4 * n * n, seed);
      }});

  // Radix-2 FFT: 4 butterflies per cycle.
  add(KernelSpec{
      .id = KernelId::kFft,
      .name = "fft",
      .kind = FunctionKind::kBehavioral,
      .input_width = 64,
      .output_width = 64,
      .nominal_frames = 16,
      .software = [](ByteSpan in) { return fft_bytes(in); },
      .fabric_cycles =
          [](std::size_t bytes) {
            const double n = static_cast<double>(bytes) / 4.0;
            const double stages = std::log2(std::max(2.0, n));
            return static_cast<std::int64_t>(n / 2.0 * stages / 4.0) + 12;
          },
      .host_time =
          [](std::size_t bytes) {
            const double n = static_cast<double>(bytes) / 4.0;
            const double stages = std::log2(std::max(2.0, n));
            return host_ns_from_cycles(18.0 * n / 2.0 * stages + 300);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("fft", KernelId::kFft, 64, 64, 16,
                                        0.85, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        // `blocks` is log2 of the FFT size; default 256 points.
        const std::size_t n = std::size_t{1}
                              << std::max<std::size_t>(3, blocks);
        return random_bytes(4 * n, seed);
      }});

  // 16-tap FIR: 4 MACs per cycle.
  add(KernelSpec{
      .id = KernelId::kFir16,
      .name = "fir16",
      .kind = FunctionKind::kBehavioral,
      .input_width = 16,
      .output_width = 16,
      .nominal_frames = 6,
      .software = [](ByteSpan in) { return fir_bytes(in); },
      .fabric_cycles =
          [](std::size_t bytes) {
            return static_cast<std::int64_t>(bytes / 2) * 4 + 8;
          },
      .host_time =
          [](std::size_t bytes) {
            return host_ns_from_cycles(20.0 * static_cast<double>(bytes / 2) +
                                       100);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("fir16", KernelId::kFir16, 16, 16, 6,
                                        0.60, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        return random_bytes(2 * 64 * std::max<std::size_t>(1, blocks), seed);
      }});

  // Modular exponentiation (RSA private-key-style op): the workload the
  // algorithm-agile crypto engines of refs [1][2] were built for, and the
  // one with enough compute per transferred byte to beat the PCI wall.
  // Hardware model: bit-serial square-and-multiply with a pipelined
  // Montgomery multiplier, ~bits*(bits/8) cycles (RSA-1024 in ~1.3 ms at
  // 100 MHz, in line with published Virtex-II implementations).  Host
  // model: ~30 Mcycles for a 1024-bit private op (~10 ms on the 3 GHz
  // baseline), scaling cubically with width.
  add(KernelSpec{
      .id = KernelId::kModExp,
      .name = "modexp",
      .kind = FunctionKind::kBehavioral,
      .input_width = 32,
      .output_width = 32,
      .nominal_frames = 18,
      .software = [](ByteSpan in) { return modexp_bytes(in); },
      .fabric_cycles =
          [](std::size_t bytes) {
            const double bits = static_cast<double>(bytes) / 3.0 * 8.0;
            return static_cast<std::int64_t>(bits * bits / 8.0) + 64;
          },
      .host_time =
          [](std::size_t bytes) {
            const double bits = static_cast<double>(bytes) / 3.0 * 8.0;
            const double scale = bits / 1024.0;
            return host_ns_from_cycles(30e6 * scale * scale * scale + 5000);
          },
      .make_bitstream =
          [](const FrameGeometry& g) {
            return behavioral_bitstream("modexp", KernelId::kModExp, 32, 32,
                                        18, 0.88, g);
          },
      .make_input = [](std::size_t blocks, std::uint64_t seed) {
        // `blocks` scales the operand width: width = 32*blocks bytes.
        const std::size_t width = 32 * std::max<std::size_t>(1, blocks);
        Bytes in = random_bytes(3 * width, seed);
        // Force a valid odd modulus with its top bit set (RSA-shaped).
        in[3 * width - 1] |= 0x80;
        in[2 * width] |= 0x01;
        return in;
      }});

  return out;
}

}  // namespace

HardwareResult run_combinational(netlist::LutExecutor& executor,
                                 ByteSpan input) {
  HardwareResult hw{Bytes(executor.output_bytes()), 1};
  executor.step(input, hw.output);
  return hw;
}

const std::vector<KernelSpec>& catalog() {
  static const std::vector<KernelSpec> kCatalog = build_catalog();
  return kCatalog;
}

const KernelSpec* find_spec(std::uint32_t kernel_id) {
  for (const KernelSpec& s : catalog())
    if (function_id(s.id) == kernel_id) return &s;
  return nullptr;
}

const KernelSpec& spec(KernelId id) {
  const KernelSpec* s = find_spec(function_id(id));
  if (s == nullptr) AAD_FAIL(ErrorCode::kNotFound, "unknown kernel id");
  return *s;
}

std::vector<std::uint32_t> function_bank() {
  std::vector<std::uint32_t> bank;
  bank.reserve(catalog().size());
  for (const KernelSpec& s : catalog()) bank.push_back(function_id(s.id));
  return bank;
}

Bytes bank_input(std::uint32_t function, std::size_t blocks,
                 std::uint64_t seed) {
  return spec(static_cast<KernelId>(function)).make_input(blocks, seed);
}

}  // namespace aad::algorithms
