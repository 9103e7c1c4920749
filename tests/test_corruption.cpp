// Corrupted-stream sweep: seeded bit flips and truncations of a catalog
// bitstream's compressed stream, fed to every codec's decoder and to the
// configuration engine; bit flips in a configured netlist kernel's
// frames, fed to network extraction and the executor's compiler; and bit
// flips and wrong-size slices of a serialized ROM record, fed to
// memory::parse_record.  A corrupt input must end in a clean finish or an
// aad::Error — never in undefined behaviour, which the sanitizer build of
// this suite turns into a failure — and a load of a corrupted ROM payload
// must be rejected before it touches the fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "algorithms/kernels.h"
#include "bitstream/bitstream.h"
#include "common/prng.h"
#include "compress/codec.h"
#include "fabric/fabric.h"
#include "mcu/config_engine.h"
#include "memory/rom.h"
#include "netlist/lutnetwork.h"

namespace aad {
namespace {

using compress::CodecId;

Bytes catalog_image(const fabric::FrameGeometry& geometry) {
  const auto& spec = algorithms::spec(algorithms::KernelId::kCrc32);
  return bitstream::pack_frame_payloads(spec.make_bitstream(geometry));
}

// Decode into a buffer the size of the pristine image, as configure() does
// with its record's raw size (a corrupt raw_size header may promise
// gigabytes, and must never choose the allocation).  Decoding must finish
// or throw aad::Error; anything else escapes the test.
void decode_or_error(const compress::Codec& codec, ByteSpan compressed,
                     std::size_t raw_size) {
  Bytes out(raw_size);
  try {
    codec.decompress_into(compressed, out);
  } catch (const Error&) {
  }
}

TEST(CorruptStreamSweep, EveryCodecSurvivesBitFlipsAndTruncation) {
  const fabric::FrameGeometry geometry;
  const std::size_t frame_bytes = geometry.frame_bytes();
  const Bytes raw = catalog_image(geometry);
  for (const CodecId id : compress::all_codec_ids()) {
    SCOPED_TRACE(compress::to_string(id));
    const auto codec = compress::make_codec(id, frame_bytes);
    const Bytes compressed = codec->compress(raw);
    ASSERT_EQ(codec->decompress(compressed), raw);

    // Every single-bit flip of the header, whose sizes the decoders trust
    // most, then seeded multi-bit flips anywhere.
    for (std::size_t bit = 0; bit < 16 * 8; ++bit) {
      Bytes flipped = compressed;
      flipped[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
      decode_or_error(*codec, flipped, raw.size());
    }
    Prng rng(0xF1F1 + static_cast<std::uint64_t>(id));
    for (int trial = 0; trial < 400; ++trial) {
      Bytes flipped = compressed;
      const unsigned flips = 1 + static_cast<unsigned>(rng.next_below(8));
      for (unsigned f = 0; f < flips; ++f) {
        const std::size_t bit = rng.next_below(flipped.size() * 8);
        flipped[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
      }
      decode_or_error(*codec, flipped, raw.size());
    }
    // Every cut inside the header, then seeded cuts through the body.
    for (std::size_t cut = 0; cut < 16 && cut < compressed.size(); ++cut)
      decode_or_error(*codec, ByteSpan(compressed).first(cut), raw.size());
    for (int trial = 0; trial < 100; ++trial) {
      const std::size_t cut = rng.next_below(compressed.size());
      decode_or_error(*codec, ByteSpan(compressed).first(cut), raw.size());
    }
  }
}

std::vector<std::vector<fabric::Word>> snapshot(const fabric::Fabric& fabric) {
  std::vector<std::vector<fabric::Word>> frames;
  for (fabric::FrameIndex f = 0; f < fabric.geometry().frame_count; ++f) {
    const auto words = fabric.memory().read_frame(f);
    frames.emplace_back(words.begin(), words.end());
  }
  return frames;
}

std::vector<std::uint64_t> hashes(const mcu::ConfigEngine& engine,
                                  const fabric::FrameGeometry& geometry) {
  std::vector<std::uint64_t> out;
  for (fabric::FrameIndex f = 0; f < geometry.frame_count; ++f)
    out.push_back(engine.frame_hash(f));
  return out;
}

TEST(CorruptStreamSweep, ConfigureRejectsCorruptPayloadWithoutSideEffects) {
  fabric::Fabric fabric;
  const auto& geometry = fabric.geometry();
  const Bytes raw = catalog_image(geometry);
  const auto frames =
      static_cast<unsigned>(raw.size() / geometry.frame_bytes());
  memory::RomImage rom(1u << 20);
  mcu::ConfigEngineConfig config;
  config.delta_reconfig = true;  // so the frame-hash tracker is live
  mcu::ConfigEngine engine(config);
  const memory::RomTiming timing;

  memory::FunctionId next_id = 1;
  for (const CodecId id : compress::all_codec_ids()) {
    SCOPED_TRACE(compress::to_string(id));
    const Bytes compressed =
        compress::make_codec(id, geometry.frame_bytes())->compress(raw);
    memory::RomRecord record;
    record.function_id = next_id++;
    record.name = "sweep";
    record.codec = id;
    record.raw_size = static_cast<std::uint32_t>(raw.size());
    record.frames = static_cast<std::uint16_t>(frames);
    record.clb_rows = geometry.clb_rows;
    record = rom.store(record, compressed);

    // Each codec's image goes to its own frames, loaded once cleanly so the
    // fabric and the tracker hold state a bad load could damage.
    std::vector<fabric::FrameIndex> targets;
    for (unsigned w = 0; w < frames; ++w)
      targets.push_back(
          static_cast<fabric::FrameIndex>((record.function_id * frames + w) %
                                          geometry.frame_count));
    engine.configure(rom, record, targets, fabric, timing,
                     sim::SimTime::zero());
    const auto frames_before = snapshot(fabric);
    const auto hashes_before = hashes(engine, geometry);

    for (std::uint64_t seed = 0; seed < 40; ++seed) {
      const unsigned flips = 1 + static_cast<unsigned>(seed % 8);
      ASSERT_TRUE(rom.corrupt_payload(record.function_id, seed, flips));
      const ByteSpan stored = rom.payload(record);
      if (std::equal(stored.begin(), stored.end(), compressed.begin()))
        continue;  // the flips cancelled out
      try {
        engine.configure(rom, record, targets, fabric, timing,
                     sim::SimTime::zero());
        ADD_FAILURE() << "seed " << seed << " loaded a corrupt payload";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << "seed " << seed;
      }
      EXPECT_EQ(snapshot(fabric), frames_before) << "seed " << seed;
      EXPECT_EQ(hashes(engine, geometry), hashes_before) << "seed " << seed;
      rom.rewrite_payload(record.function_id, compressed);
    }
  }
}

TEST(CorruptStreamSweep, ConfigureRejectsAGiantRawSizeBeforeAllocating) {
  // A header whose raw size has bit 31 flipped, stored with a matching
  // payload CRC so only the engine's header check stands between it and a
  // 2 GiB allocation.  CI runs this suite under a 2 GiB address-space cap,
  // so a decode sized from the header fails there even if it would not
  // here.
  fabric::Fabric fabric;
  const auto& geometry = fabric.geometry();
  const Bytes raw = catalog_image(geometry);
  const auto frames =
      static_cast<unsigned>(raw.size() / geometry.frame_bytes());
  memory::RomImage rom(1u << 20);
  mcu::ConfigEngineConfig config;
  config.delta_reconfig = true;
  mcu::ConfigEngine engine(config);
  const memory::RomTiming timing;
  std::vector<fabric::FrameIndex> targets;
  for (unsigned w = 0; w < frames; ++w)
    targets.push_back(static_cast<fabric::FrameIndex>(2 * w + 1));

  memory::FunctionId next_id = 1;
  for (const CodecId id : compress::all_codec_ids()) {
    SCOPED_TRACE(compress::to_string(id));
    const Bytes compressed =
        compress::make_codec(id, geometry.frame_bytes())->compress(raw);
    memory::RomRecord record;
    record.function_id = next_id++;
    record.name = "giant";
    record.codec = id;
    record.raw_size = static_cast<std::uint32_t>(raw.size());
    record.frames = static_cast<std::uint16_t>(frames);
    record.clb_rows = geometry.clb_rows;
    const memory::RomRecord clean = rom.store(record, compressed);
    engine.configure(rom, clean, targets, fabric, timing,
                     sim::SimTime::zero());
    const auto frames_before = snapshot(fabric);
    const auto hashes_before = hashes(engine, geometry);

    Bytes giant = compressed;
    giant[3] ^= 0x80;  // bit 31 of the little-endian raw_size
    ASSERT_EQ(compress::raw_size(giant), raw.size() + (std::size_t{1} << 31));
    record.function_id = next_id++;
    const memory::RomRecord bad = rom.store(record, giant);
    try {
      engine.configure(rom, bad, targets, fabric, timing,
                       sim::SimTime::zero());
      ADD_FAILURE() << "a giant raw size loaded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
    }
    EXPECT_EQ(snapshot(fabric), frames_before);
    EXPECT_EQ(hashes(engine, geometry), hashes_before);
  }
}

// Extract and compile the function from the configuration plane, then clock
// the result twice: a network that compiles must only ever index its own
// state array (the sanitizer build checks every access).  Returns whether
// it compiled.
bool extract_or_error(const fabric::Fabric& fabric,
                      std::span<const fabric::FrameIndex> frames,
                      const algorithms::KernelSpec& spec) {
  try {
    netlist::LutExecutor executor(fabric.extract_network(
        frames, spec.name, spec.input_width, spec.output_width));
    const Bytes in(executor.input_bytes(), 0xA5);
    Bytes out(executor.output_bytes());
    executor.step(in, out);
    executor.step(in, out);
    return true;
  } catch (const Error&) {
    return false;
  }
}

TEST(CorruptFrameSweep, ExtractAndCompileFinishOrThrow) {
  const auto& spec = algorithms::spec(algorithms::KernelId::kCrc32);
  fabric::Fabric fabric;
  const auto bs = spec.make_bitstream(fabric.geometry());
  ASSERT_GE(bs.frames.size(), 2u);
  std::vector<fabric::FrameIndex> frames;
  for (std::size_t i = 0; i < bs.frames.size(); ++i) {
    frames.push_back(static_cast<fabric::FrameIndex>(3 + 5 * i));
    fabric.configure_frame(frames.back(), bs.frames[i]);
  }
  ASSERT_TRUE(extract_or_error(fabric, frames, spec));  // pristine load

  // Every single-bit flip of the first frame (LUT truth tables, flags,
  // output bindings, pin selectors and switch words alike).
  // Truth-table flips leave the network well-formed, so some compile.
  const std::vector<fabric::Word>& first = bs.frames[0];
  std::size_t compiled = 0;
  for (std::size_t bit = 0; bit < first.size() * 32; ++bit) {
    std::vector<fabric::Word> flipped = first;
    flipped[bit / 32] ^= fabric::Word{1} << (bit % 32);
    fabric.configure_frame(frames[0], flipped);
    compiled += extract_or_error(fabric, frames, spec) ? 1 : 0;
  }
  EXPECT_GT(compiled, 0u);
  fabric.configure_frame(frames[0], first);

  // Seeded multi-bit flips spread over every frame of the function.
  Prng rng(0xF7A3E);
  for (int trial = 0; trial < 200; ++trial) {
    auto payloads = bs.frames;
    const unsigned flips = 2 + static_cast<unsigned>(rng.next_below(7));
    for (unsigned f = 0; f < flips; ++f) {
      auto& frame = payloads[rng.next_below(payloads.size())];
      const std::size_t bit = rng.next_below(frame.size() * 32);
      frame[bit / 32] ^= fabric::Word{1} << (bit % 32);
    }
    for (std::size_t i = 0; i < frames.size(); ++i)
      fabric.configure_frame(frames[i], payloads[i]);
    extract_or_error(fabric, frames, spec);
  }
}

std::vector<memory::RomRecord> sample_records() {
  std::vector<memory::RomRecord> records;
  std::uint32_t start = 0;
  for (const algorithms::KernelSpec& spec : algorithms::catalog()) {
    memory::RomRecord r;
    r.function_id = algorithms::function_id(spec.id);
    r.name = spec.name;
    r.kind = spec.kind;
    r.codec = compress::CodecId::kFrameDelta;
    r.start = start;
    r.compressed_size = 1000 + 37 * r.function_id;
    r.raw_size = 6144 * spec.nominal_frames;
    r.frames = static_cast<std::uint16_t>(spec.nominal_frames);
    r.clb_rows = 16;
    r.input_width = spec.input_width;
    r.output_width = spec.output_width;
    r.kernel_id = r.function_id;
    r.payload_crc = 0x9E3779B9u * r.function_id;
    start += r.compressed_size;
    records.push_back(r);
  }
  return records;
}

TEST(CorruptRecordSweep, EverySingleBitFlipIsCaught) {
  for (const memory::RomRecord& record : sample_records()) {
    SCOPED_TRACE(record.name);
    const Bytes slot = memory::serialize_record(record);
    ASSERT_EQ(slot.size(), memory::kRecordBytes);
    ASSERT_EQ(memory::parse_record(slot), record);
    for (std::size_t bit = 0; bit < slot.size() * 8; ++bit) {
      Bytes flipped = slot;
      flipped[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
      try {
        memory::parse_record(flipped);
        ADD_FAILURE() << "bit " << bit << " flip parsed";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kCorruptData) << "bit " << bit;
      }
    }
  }
}

TEST(CorruptRecordSweep, WrongSizeSlicesThrow) {
  const Bytes slot = memory::serialize_record(sample_records().front());
  Bytes doubled = slot;
  doubled.insert(doubled.end(), slot.begin(), slot.end());
  for (std::size_t size = 0; size <= doubled.size(); ++size) {
    if (size == memory::kRecordBytes) continue;
    EXPECT_THROW(memory::parse_record(ByteSpan(doubled).first(size)), Error)
        << "size " << size;
  }
}

TEST(CorruptRecordSweep, MultiBitFlipsFinishOrThrow) {
  const auto records = sample_records();
  Prng rng(0x2EC0D);
  for (int trial = 0; trial < 400; ++trial) {
    Bytes slot =
        memory::serialize_record(records[rng.next_below(records.size())]);
    const unsigned flips = 2 + static_cast<unsigned>(rng.next_below(15));
    for (unsigned f = 0; f < flips; ++f) {
      const std::size_t bit = rng.next_below(slot.size() * 8);
      slot[bit / 8] ^= static_cast<Byte>(1u << (bit % 8));
    }
    try {
      memory::parse_record(slot);
    } catch (const Error&) {
    }
  }
}

}  // namespace
}  // namespace aad
