// Integration tests for the microcontroller mini-OS: provisioning, the
// on-demand load path (hit / miss / eviction), the streaming configuration
// engine, and execution from the configuration plane.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "algorithms/kernels.h"
#include "bitstream/synth.h"
#include "common/crc32.h"
#include "common/prng.h"
#include "fabric/fabric.h"
#include "mcu/mcu.h"

namespace aad::mcu {
namespace {

using algorithms::KernelId;

class McuFixture : public ::testing::Test {
 protected:
  McuFixture()
      : mcu_(fabric_, scheduler_, registry_, runtime_, make_config()) {
    algorithms::register_runtimes(runtime_);
  }

  static McuConfig make_config() {
    McuConfig config;
    config.codec = compress::CodecId::kFrameDelta;
    return config;
  }

  memory::RomRecord provision(KernelId id) {
    const auto& spec = algorithms::spec(id);
    return mcu_.store_function(algorithms::function_id(id),
                               spec.make_bitstream(fabric_.geometry()));
  }

  fabric::Fabric fabric_;
  sim::Scheduler scheduler_;
  telemetry::Registry registry_;
  RuntimeRegistry runtime_;
  Mcu mcu_;
};

TEST_F(McuFixture, StoreFunctionWritesRomRecord) {
  const auto record = provision(KernelId::kAdder32);
  EXPECT_EQ(record.function_id, algorithms::function_id(KernelId::kAdder32));
  EXPECT_GT(record.compressed_size, 0u);
  EXPECT_LT(record.compressed_size, record.raw_size);  // it compresses
  EXPECT_TRUE(mcu_.rom().lookup(record.function_id).has_value());
  EXPECT_GT(scheduler_.now(), sim::SimTime::zero());  // ROM programming time
}

TEST_F(McuFixture, LoadUnprovisionedFunctionFails) {
  try {
    mcu_.ensure_loaded(9999);
    FAIL() << "expected NotFound";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kNotFound);
  }
}

TEST_F(McuFixture, FirstLoadMissesThenHits) {
  provision(KernelId::kAdder32);
  const auto fid = algorithms::function_id(KernelId::kAdder32);

  const sim::SimTime t0 = scheduler_.now();
  const auto first = mcu_.ensure_loaded(fid);
  EXPECT_FALSE(first.hit);
  EXPECT_GT(first.frames_configured, 0u);
  EXPECT_GT(first.reconfig_time, sim::SimTime::zero());
  EXPECT_EQ(scheduler_.now() - t0, first.reconfig_time);

  const sim::SimTime t1 = scheduler_.now();
  const auto second = mcu_.ensure_loaded(fid);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.reconfig_time, sim::SimTime::zero());
  EXPECT_EQ(scheduler_.now(), t1);  // a hit costs the load nothing

  EXPECT_EQ(mcu_.stats().config_hits, 1u);
  EXPECT_EQ(mcu_.stats().config_misses, 1u);
}

TEST_F(McuFixture, NetlistKernelComputesCorrectlyFromPlane) {
  provision(KernelId::kAdder32);
  const auto& spec = algorithms::spec(KernelId::kAdder32);
  const auto fid = algorithms::function_id(KernelId::kAdder32);
  mcu_.ensure_loaded(fid);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const Bytes input = spec.make_input(1, seed);
    EXPECT_EQ(mcu_.execute_invoke(fid, input).output, spec.software(input))
        << "seed " << seed;
  }
}

TEST_F(McuFixture, SequentialNetlistKernelCrc32) {
  provision(KernelId::kCrc32);
  const auto& spec = algorithms::spec(KernelId::kCrc32);
  const Bytes input = spec.make_input(64, 7);
  const auto fid = algorithms::function_id(KernelId::kCrc32);
  mcu_.ensure_loaded(fid);
  const ExecutedInvoke result = mcu_.execute_invoke(fid, input);
  EXPECT_EQ(result.output, spec.software(input));
  // Cycle count is real: one per byte plus the drain cycle.
  EXPECT_EQ(result.exec_cycles,
            static_cast<std::int64_t>(input.size()) + 1);
}

TEST_F(McuFixture, BehavioralKernelUsesCycleModel) {
  provision(KernelId::kXtea);
  const auto& spec = algorithms::spec(KernelId::kXtea);
  const Bytes input = spec.make_input(4, 3);
  const auto fid = algorithms::function_id(KernelId::kXtea);
  mcu_.ensure_loaded(fid);
  const ExecutedInvoke result = mcu_.execute_invoke(fid, input);
  EXPECT_EQ(result.output, spec.software(input));
  EXPECT_EQ(result.exec_cycles, spec.fabric_cycles(input.size()));
}

TEST_F(McuFixture, EvictionTriggersWhenDeviceFull) {
  // 48-frame device; load kernels until the free list is exhausted.
  provision(KernelId::kAes128);   // 12
  provision(KernelId::kFft);      // 16
  provision(KernelId::kMatMul);   // 14
  provision(KernelId::kSha256);   // 10 -> would need eviction at 42 used

  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAes128));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kFft));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kMatMul));
  EXPECT_EQ(mcu_.resident_functions().size(), 3u);

  const auto load = mcu_.ensure_loaded(
      algorithms::function_id(KernelId::kSha256));
  EXPECT_FALSE(load.hit);
  EXPECT_GE(load.evictions, 1u);
  EXPECT_TRUE(mcu_.is_resident(algorithms::function_id(KernelId::kSha256)));
  EXPECT_GE(mcu_.stats().evictions, 1u);
}

TEST_F(McuFixture, LruVictimIsLeastRecentlyUsed) {
  provision(KernelId::kAes128);   // 12
  provision(KernelId::kFft);      // 16
  provision(KernelId::kMatMul);   // 14
  provision(KernelId::kSha256);   // 10

  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAes128));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kFft));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kMatMul));
  // Touch AES and FFT so MatMul is the LRU entry.
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAes128));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kFft));

  mcu_.ensure_loaded(algorithms::function_id(KernelId::kSha256));
  EXPECT_FALSE(mcu_.is_resident(algorithms::function_id(KernelId::kMatMul)));
  EXPECT_TRUE(mcu_.is_resident(algorithms::function_id(KernelId::kAes128)));
  EXPECT_TRUE(mcu_.is_resident(algorithms::function_id(KernelId::kFft)));
}

TEST_F(McuFixture, FrameTableMatchesPaperStructure) {
  provision(KernelId::kAdder32);
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAdder32));
  const auto& table = mcu_.frame_table();
  ASSERT_EQ(table.size(), 1u);
  const auto& entry = table.begin()->second;
  EXPECT_FALSE(entry.frames.empty());          // list of frames occupied
  EXPECT_GT(entry.access_count, 0u);           // usage statistics
  EXPECT_GE(entry.last_access, entry.loaded_at);  // time stamp semantics
}

TEST_F(McuFixture, ExplicitEvictFreesFrames) {
  provision(KernelId::kAdder32);
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAdder32));
  const unsigned free_before = mcu_.free_frames().free_count();
  mcu_.evict(algorithms::function_id(KernelId::kAdder32));
  EXPECT_GT(mcu_.free_frames().free_count(), free_before);
  EXPECT_FALSE(mcu_.is_resident(algorithms::function_id(KernelId::kAdder32)));
  EXPECT_THROW(mcu_.evict(algorithms::function_id(KernelId::kAdder32)),
               Error);
}

TEST_F(McuFixture, ReloadAfterEvictionStillCorrect) {
  provision(KernelId::kCrc32);
  const auto& spec = algorithms::spec(KernelId::kCrc32);
  const Bytes input = spec.make_input(16, 5);
  const auto fid = algorithms::function_id(KernelId::kCrc32);
  mcu_.ensure_loaded(fid);
  const ExecutedInvoke r1 = mcu_.execute_invoke(fid, input);
  mcu_.evict(fid);
  EXPECT_FALSE(mcu_.ensure_loaded(fid).hit);
  EXPECT_EQ(mcu_.execute_invoke(fid, input).output, r1.output);
}

TEST_F(McuFixture, ResetFabricDropsEverything) {
  provision(KernelId::kAdder32);
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAdder32));
  mcu_.reset_fabric();
  EXPECT_TRUE(mcu_.resident_functions().empty());
  EXPECT_EQ(mcu_.free_frames().free_count(),
            fabric_.geometry().frame_count);
}

TEST_F(McuFixture, CorruptRomPayloadDetectedAtConfigure) {
  const auto record = provision(KernelId::kAdder32);
  // Store a record whose CRC we then invalidate by rebuilding a fake record
  // pointing into noise: easiest corruption is a doctored copy.
  memory::RomRecord bad = record;
  bad.payload_crc ^= 0xFFFFFFFF;
  ConfigEngine engine;
  std::vector<fabric::FrameIndex> targets;
  for (unsigned i = 0; i < record.frames; ++i) targets.push_back(i);
  try {
    engine.configure(mcu_.rom(), bad, targets, fabric_,
                     memory::RomTiming{}, sim::SimTime::zero());
    FAIL() << "expected CRC failure";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptData);
  }
}

TEST_F(McuFixture, ConfigEnginePipelineTimingBreakdown) {
  const auto record = provision(KernelId::kFft);  // 16 frames, big stream
  ConfigEngine engine;
  std::vector<fabric::FrameIndex> targets;
  for (unsigned i = 0; i < record.frames; ++i) targets.push_back(i);
  const auto result =
      engine.configure(mcu_.rom(), record, targets, fabric_,
                       memory::RomTiming{}, sim::SimTime::zero());
  EXPECT_EQ(result.frames_written, record.frames);
  EXPECT_EQ(result.raw_bytes, record.raw_size);
  // The pipeline overlaps stages: total must be less than the sum of all
  // stage times but at least the slowest stage's bound.
  const auto sum =
      result.rom_bound + result.decompress_bound + result.config_bound;
  EXPECT_LT(result.total, sum);
  EXPECT_GE(result.total, result.config_bound);
}

TEST_F(McuFixture, GeometryMismatchRejected) {
  fabric::FrameGeometry other;
  other.clb_rows = 8;
  bitstream::SynthParams params;
  params.frames = 2;
  const auto bs =
      bitstream::synthesize_behavioral("alien", 500, 8, 8, other, params);
  EXPECT_THROW(mcu_.store_function(500, bs), Error);
}

TEST_F(McuFixture, OversizedFunctionRejected) {
  bitstream::SynthParams params;
  params.frames = fabric_.geometry().frame_count + 1;
  const auto bs = bitstream::synthesize_behavioral(
      "huge", 501, 8, 8, fabric_.geometry(), params);
  EXPECT_THROW(mcu_.store_function(501, bs), Error);
}

// --- difference-based reconfiguration (paper ref [4]) -------------------------

class DiffMcuFixture : public ::testing::Test {
 protected:
  DiffMcuFixture()
      : mcu_(fabric_, scheduler_, registry_, runtime_, config()) {
    algorithms::register_runtimes(runtime_);
  }
  static McuConfig config() {
    McuConfig c;
    c.engine.difference_based = true;
    return c;
  }
  fabric::Fabric fabric_;
  sim::Scheduler scheduler_;
  telemetry::Registry registry_;
  RuntimeRegistry runtime_;
  Mcu mcu_;
};

TEST_F(DiffMcuFixture, ReloadIntoSameFramesSkipsAllWrites) {
  const auto& spec = algorithms::spec(KernelId::kAdder32);
  mcu_.store_function(algorithms::function_id(KernelId::kAdder32),
                      spec.make_bitstream(fabric_.geometry()));
  const auto fid = algorithms::function_id(KernelId::kAdder32);

  const auto first = mcu_.ensure_loaded(fid);
  EXPECT_GT(first.frames_configured, 0u);
  const auto written_before = fabric_.memory().frame_writes();

  // Evict (frames are NOT erased) and reload: first-fit hands back the same
  // frames, the readback compare matches, and zero port writes happen.
  mcu_.evict(fid);
  const auto second = mcu_.ensure_loaded(fid);
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(second.frames_configured, 0u);
  EXPECT_EQ(fabric_.memory().frame_writes(), written_before);
  EXPECT_GT(mcu_.stats().frames_skipped, 0u);
  // And it is cheaper than the first load.
  EXPECT_LT(second.reconfig_time, first.reconfig_time);

  // The function still computes from the (untouched) configuration plane.
  const Bytes input = spec.make_input(1, 17);
  EXPECT_EQ(mcu_.execute_invoke(fid, input).output, spec.software(input));
}

TEST_F(DiffMcuFixture, DifferentContentStillWritten) {
  for (KernelId id : {KernelId::kAdder32, KernelId::kParity32}) {
    const auto& spec = algorithms::spec(id);
    mcu_.store_function(algorithms::function_id(id),
                        spec.make_bitstream(fabric_.geometry()));
  }
  // Load adder, evict, load parity into the overlapping region: content
  // differs, so the write must happen and parity must compute correctly.
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAdder32));
  mcu_.evict(algorithms::function_id(KernelId::kAdder32));
  const auto load =
      mcu_.ensure_loaded(algorithms::function_id(KernelId::kParity32));
  EXPECT_GT(load.frames_configured, 0u);
  const auto& spec = algorithms::spec(KernelId::kParity32);
  const Bytes input = spec.make_input(1, 3);
  EXPECT_EQ(mcu_.execute_invoke(algorithms::function_id(KernelId::kParity32),
                                input)
                .output,
            spec.software(input));
}

// --- defragmentation ------------------------------------------------------------

TEST_F(McuFixture, DefragmentCompactsFreeSpace) {
  provision(KernelId::kAes128);   // 12
  provision(KernelId::kFft);      // 16
  provision(KernelId::kMatMul);   // 14
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAes128));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kFft));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kMatMul));
  // Punch a hole in the middle.
  mcu_.evict(algorithms::function_id(KernelId::kFft));
  EXPECT_LT(mcu_.free_frames().largest_free_run(),
            mcu_.free_frames().free_count());

  const auto result = mcu_.defragment();
  EXPECT_GE(result.functions_moved, 1u);
  EXPECT_EQ(mcu_.free_frames().largest_free_run(),
            mcu_.free_frames().free_count());
  EXPECT_GT(result.time, sim::SimTime::zero());

  // Relocated functions still compute (executors were invalidated and are
  // rebuilt from the new frames).
  for (KernelId id : {KernelId::kAes128, KernelId::kMatMul}) {
    const auto& spec = algorithms::spec(id);
    const Bytes input = spec.make_input(1, 9);
    EXPECT_TRUE(mcu_.ensure_loaded(algorithms::function_id(id)).hit)
        << spec.name;
    EXPECT_EQ(mcu_.execute_invoke(algorithms::function_id(id), input).output,
              spec.software(input))
        << spec.name;
  }
}

TEST_F(McuFixture, DefragmentOnEmptyOrPackedDeviceIsNoOp) {
  const auto empty = mcu_.defragment();
  EXPECT_EQ(empty.functions_moved, 0u);
  provision(KernelId::kAdder32);
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kAdder32));
  const auto packed = mcu_.defragment();  // already at frame 0
  EXPECT_EQ(packed.functions_moved, 0u);
}

TEST(McuDefragOnPressure, AvoidsEvictionUnderPureFragmentation) {
  fabric::Fabric fabric;
  sim::Scheduler scheduler;
  RuntimeRegistry runtime;
  algorithms::register_runtimes(runtime);
  McuConfig config;
  config.defragment_on_pressure = true;
  telemetry::Registry registry;
  Mcu mcu(fabric, scheduler, registry, runtime, config);

  for (KernelId id : {KernelId::kAes128, KernelId::kFft, KernelId::kMatMul,
                      KernelId::kModExp}) {
    const auto& spec = algorithms::spec(id);
    mcu.store_function(algorithms::function_id(id),
                       spec.make_bitstream(fabric.geometry()));
  }
  // aes 0..11, fft 12..27, matmul 28..41; evict aes -> free {0..11, 42..47}
  // = 18 frames but largest run only 12.
  mcu.ensure_loaded(algorithms::function_id(KernelId::kAes128));
  mcu.ensure_loaded(algorithms::function_id(KernelId::kFft));
  mcu.ensure_loaded(algorithms::function_id(KernelId::kMatMul));
  mcu.evict(algorithms::function_id(KernelId::kAes128));
  ASSERT_EQ(mcu.free_frames().free_count(), 18u);
  ASSERT_LT(mcu.free_frames().largest_free_run(), 18u);

  // modexp needs 18 contiguous frames: only compaction can satisfy it
  // without evicting anyone.
  const auto load =
      mcu.ensure_loaded(algorithms::function_id(KernelId::kModExp));
  EXPECT_EQ(load.evictions, 0u);
  EXPECT_EQ(mcu.stats().defragmentations, 1u);
  EXPECT_TRUE(mcu.is_resident(algorithms::function_id(KernelId::kFft)));
  EXPECT_TRUE(mcu.is_resident(algorithms::function_id(KernelId::kMatMul)));
}

TEST_F(McuFixture, StatsAccumulateAcrossInvokes) {
  provision(KernelId::kAdder32);
  provision(KernelId::kParity32);
  const auto a = algorithms::function_id(KernelId::kAdder32);
  const auto p = algorithms::function_id(KernelId::kParity32);
  for (const memory::FunctionId fid : {a, p, a}) {
    mcu_.decode_invoke();  // counts the invocation
    mcu_.ensure_loaded(fid);
    mcu_.execute_invoke(fid, algorithms::bank_input(fid, 1, 1));
  }
  const McuStats& s = mcu_.stats();
  EXPECT_EQ(s.invocations, 3u);
  EXPECT_EQ(s.config_misses, 2u);
  EXPECT_EQ(s.config_hits, 1u);
  EXPECT_GT(s.frames_configured, 0u);
  EXPECT_GT(s.compressed_bytes_streamed, 0u);
}

TEST_F(McuFixture, FramesOfReportsResidencyFrameSets) {
  provision(KernelId::kAes128);
  provision(KernelId::kSha256);
  const auto aes = algorithms::function_id(KernelId::kAes128);
  const auto sha = algorithms::function_id(KernelId::kSha256);
  EXPECT_TRUE(mcu_.frames_of(aes).empty());  // not resident yet

  mcu_.ensure_loaded(aes);
  mcu_.ensure_loaded(sha);
  const auto aes_frames = mcu_.frames_of(aes);
  const auto sha_frames = mcu_.frames_of(sha);
  EXPECT_EQ(aes_frames.size(), 12u);
  EXPECT_EQ(sha_frames.size(), 10u);
  // Two resident functions never share a frame — the disjointness the
  // overlapped-reconfiguration path relies on.
  for (const auto f : aes_frames)
    for (const auto g : sha_frames) EXPECT_NE(f, g);

  mcu_.evict(aes);
  EXPECT_TRUE(mcu_.frames_of(aes).empty());
}

TEST_F(McuFixture, PinExcludesFunctionFromEviction) {
  // 48-frame device: AES(12) + FFT(16) + MatMul(14) fill it to 42; SHA256
  // (10) forces the eviction loop.  With LRU the victim would be AES, but
  // a pinned AES (as if mid-execution on the fabric) must survive.
  provision(KernelId::kAes128);
  provision(KernelId::kFft);
  provision(KernelId::kMatMul);
  provision(KernelId::kSha256);
  const auto aes = algorithms::function_id(KernelId::kAes128);
  mcu_.ensure_loaded(aes);
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kFft));
  mcu_.ensure_loaded(algorithms::function_id(KernelId::kMatMul));

  mcu_.pin(aes);
  EXPECT_TRUE(mcu_.is_pinned(aes));
  const auto load =
      mcu_.ensure_loaded(algorithms::function_id(KernelId::kSha256));
  EXPECT_GE(load.evictions, 1u);
  EXPECT_TRUE(mcu_.is_resident(aes));  // LRU victim, but pinned
  mcu_.unpin(aes);
  EXPECT_FALSE(mcu_.is_pinned(aes));
}

TEST_F(McuFixture, PinnedFunctionsRejectEvictAndDefragment) {
  provision(KernelId::kAdder32);
  const auto fid = algorithms::function_id(KernelId::kAdder32);
  mcu_.ensure_loaded(fid);
  mcu_.pin(fid);
  EXPECT_THROW(mcu_.evict(fid), Error);          // host-directed swap-out
  EXPECT_THROW(mcu_.defragment(), Error);        // would relocate its frames
  mcu_.unpin(fid);
  mcu_.evict(fid);                               // legal once unpinned
  EXPECT_FALSE(mcu_.is_resident(fid));
  EXPECT_THROW(mcu_.pin(fid), Error);            // pinning needs residency
}

TEST_F(McuFixture, PinReferencesCompose) {
  // Two independent holders — a request batch spanning several fabric
  // windows, and an overlapped load's PinGuard — pin the same function;
  // the function stays pinned until BOTH release (refcounted, not a set).
  provision(KernelId::kAdder32);
  const auto fid = algorithms::function_id(KernelId::kAdder32);
  mcu_.ensure_loaded(fid);

  mcu_.pin(fid);    // the batch's reference
  mcu_.pin(fid);    // an overlapped load's guard
  EXPECT_EQ(mcu_.pin_count(fid), 2u);
  EXPECT_EQ(mcu_.pinned_count(), 1u);  // one function, two references

  mcu_.unpin(fid);  // the guard releases when the load commits
  EXPECT_TRUE(mcu_.is_pinned(fid));    // the batch still holds it
  EXPECT_EQ(mcu_.pin_count(fid), 1u);
  EXPECT_THROW(mcu_.evict(fid), Error);

  mcu_.unpin(fid);  // the batch's last window retires
  EXPECT_FALSE(mcu_.is_pinned(fid));
  EXPECT_EQ(mcu_.pin_count(fid), 0u);
  mcu_.unpin(fid);  // over-release is a harmless no-op
  EXPECT_EQ(mcu_.pin_count(fid), 0u);
  mcu_.evict(fid);  // evictable again
  EXPECT_FALSE(mcu_.is_resident(fid));
}

TEST_F(McuFixture, LoadFeasibleHonorsPinnedLimitState) {
  // Fill the device, pin everything: no load can be placed.  Unpin one
  // function and the load becomes feasible again (its frames could be
  // evicted in the limit).
  provision(KernelId::kAes128);
  provision(KernelId::kFft);
  provision(KernelId::kMatMul);
  provision(KernelId::kSha256);
  const auto aes = algorithms::function_id(KernelId::kAes128);
  const auto fft = algorithms::function_id(KernelId::kFft);
  const auto mm = algorithms::function_id(KernelId::kMatMul);
  const auto sha = algorithms::function_id(KernelId::kSha256);
  mcu_.ensure_loaded(aes);
  mcu_.ensure_loaded(fft);
  mcu_.ensure_loaded(mm);  // 42 of 48 frames used

  EXPECT_TRUE(mcu_.load_feasible(aes));  // hit: always feasible
  mcu_.pin(aes);
  mcu_.pin(fft);
  mcu_.pin(mm);
  EXPECT_FALSE(mcu_.load_feasible(sha));  // 6 free frames, 10 needed
  mcu_.unpin(fft);
  EXPECT_TRUE(mcu_.load_feasible(sha));   // evicting FFT frees a 16-run

  // The eviction loop respects the remaining pins: SHA-256 lands without
  // touching AES or MatMul.
  const auto load = mcu_.ensure_loaded(sha);
  EXPECT_GE(load.evictions, 1u);
  EXPECT_TRUE(mcu_.is_resident(aes));
  EXPECT_TRUE(mcu_.is_resident(mm));
  EXPECT_FALSE(mcu_.is_resident(fft));
  mcu_.unpin(aes);
  mcu_.unpin(mm);
}

TEST_F(McuFixture, StagedCallsReturnDurationsWithoutAdvancingTime) {
  // The server composes decode_invoke + load_invoke + execute_invoke into
  // its engine and fabric windows (tests/test_core.cpp checks that
  // composition against AgileCoprocessor::invoke).  The primitives
  // themselves only return durations, and the synchronous ensure_loaded is
  // load_invoke plus exactly that clock advance.
  provision(KernelId::kAdder32);
  const auto a = algorithms::function_id(KernelId::kAdder32);
  const Bytes input = algorithms::spec(KernelId::kAdder32).make_input(2, 3);

  const sim::SimTime start = scheduler_.now();
  const sim::SimTime decode = mcu_.decode_invoke();
  EXPECT_GT(decode, sim::SimTime::zero());
  sim::SimTime load_elapsed;
  LoadStages stages;
  const LoadResult load =
      mcu_.load_invoke(a, start + decode, &load_elapsed, &stages);
  EXPECT_FALSE(load.hit);
  EXPECT_EQ(load_elapsed, load.reconfig_time);  // free frames: no eviction
  EXPECT_GT(stages.configure, sim::SimTime::zero());
  EXPECT_GT(stages.firmware, sim::SimTime::zero());
  const ExecutedInvoke run = mcu_.execute_invoke(a, input);
  EXPECT_GT(run.time, fabric_.execution_time(run.exec_cycles));  // + staging
  EXPECT_EQ(scheduler_.now(), start);  // the staged path never advances time

  // The same cold load again (first-fit hands back the same frames).
  mcu_.evict(a);
  const sim::SimTime before = scheduler_.now();
  const LoadResult again = mcu_.ensure_loaded(a);
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.reconfig_time, load.reconfig_time);
  EXPECT_EQ(scheduler_.now() - before, load_elapsed);
  const ExecutedInvoke rerun = mcu_.execute_invoke(a, input);
  EXPECT_EQ(rerun.output, run.output);
  EXPECT_EQ(rerun.time, run.time);
  EXPECT_EQ(mcu_.stats().invocations, 1u);  // only decode_invoke counts
}

// --- delta reconfiguration (frame-content tracking) ---------------------------

class DeltaMcuFixture : public ::testing::Test {
 protected:
  static constexpr memory::FunctionId kV0 = 9000;
  static constexpr memory::FunctionId kV1 = 9001;
  static constexpr unsigned kFrames = 12;
  static constexpr unsigned kDirty = 2;

  DeltaMcuFixture()
      : mcu_(fabric_, scheduler_, registry_, runtime_, config()) {
    algorithms::register_runtimes(runtime_);
  }

  static McuConfig config() {
    McuConfig c;
    c.engine.delta_reconfig = true;
    return c;
  }

  /// Two versions of a 12-frame behavioral function whose bitstreams
  /// differ in exactly kDirty frames.
  void provision_versions() {
    const auto& spec = algorithms::spec(KernelId::kXtea);
    bitstream::SynthParams params;
    params.frames = kFrames;
    params.seed = 11;
    bitstream::Bitstream v0 = bitstream::synthesize_behavioral(
        spec.name, algorithms::function_id(KernelId::kXtea), spec.input_width,
        spec.output_width, fabric_.geometry(), params);
    params.seed = 12;
    const bitstream::Bitstream alt = bitstream::synthesize_behavioral(
        spec.name, algorithms::function_id(KernelId::kXtea), spec.input_width,
        spec.output_width, fabric_.geometry(), params);
    bitstream::Bitstream v1 = v0;
    for (unsigned d = 0; d < kDirty; ++d) v1.frames[d] = alt.frames[d];
    mcu_.store_function(kV0, v0);
    mcu_.store_function(kV1, v1);
  }

  fabric::Fabric fabric_;
  sim::Scheduler scheduler_;
  telemetry::Registry registry_;
  RuntimeRegistry runtime_;
  Mcu mcu_;
};

TEST_F(DeltaMcuFixture, ReloadAfterEvictionSkipsEveryMatchedFrame) {
  provision_versions();
  const auto first = mcu_.ensure_loaded(kV0);
  EXPECT_EQ(first.frames_configured, kFrames);

  // Eviction leaves fabric content AND the hash tracker intact; first-fit
  // hands the same frames back, so the whole load collapses to per-window
  // delta checks — no ROM fetch, no decompression, no port writes.
  mcu_.evict(kV0);
  const auto bytes_before = mcu_.stats().compressed_bytes_streamed;
  const auto second = mcu_.ensure_loaded(kV0);
  EXPECT_FALSE(second.hit);
  EXPECT_EQ(second.frames_configured, 0u);
  EXPECT_EQ(mcu_.stats().frames_skipped_delta, kFrames);
  EXPECT_EQ(mcu_.stats().compressed_bytes_streamed, bytes_before);
  EXPECT_LT(second.reconfig_time * 3, first.reconfig_time);

  const auto& spec = algorithms::spec(KernelId::kXtea);
  const Bytes input = spec.make_input(1, 5);
  EXPECT_EQ(mcu_.execute_invoke(kV0, input).output, spec.software(input));
}

TEST_F(DeltaMcuFixture, CrossFunctionMatchStreamsOnlyDirtyFrames) {
  provision_versions();
  mcu_.ensure_loaded(kV0);
  mcu_.evict(kV0);

  // The sibling version reuses v0's frames: only the kDirty differing
  // windows stream through the pipeline.
  const auto load = mcu_.ensure_loaded(kV1);
  EXPECT_EQ(load.frames_configured, kDirty);
  EXPECT_EQ(mcu_.stats().frames_skipped_delta, kFrames - kDirty);
}

TEST_F(DeltaMcuFixture, InPlaceUpgradeEvictsTheMatchedSibling) {
  provision_versions();
  mcu_.ensure_loaded(kV0);
  const auto v0_frames = mcu_.frames_of(kV0);

  // v0 is still resident and the device has plenty of free frames, but the
  // upgrade plan prefers claiming v0's frame set: most of v1's load then
  // delta-skips, instead of streaming 12 cold frames elsewhere.
  const auto load = mcu_.ensure_loaded(kV1);
  EXPECT_EQ(load.evictions, 1u);
  EXPECT_FALSE(mcu_.is_resident(kV0));
  EXPECT_TRUE(mcu_.is_resident(kV1));
  EXPECT_EQ(mcu_.frames_of(kV1), v0_frames);
  EXPECT_EQ(load.frames_configured, kDirty);
}

TEST_F(DeltaMcuFixture, EstimateLoadMatchesActualElapsedExactly) {
  provision_versions();

  // Cold miss, no eviction: the estimator runs the same pipeline
  // recurrence the engine executes, so the prediction is exact.
  const auto cold = mcu_.estimate_load(kV0);
  ASSERT_TRUE(cold.known);
  EXPECT_FALSE(cold.resident);
  EXPECT_EQ(cold.frames_matched, 0u);
  sim::SimTime t0 = scheduler_.now();
  mcu_.ensure_loaded(kV0);
  EXPECT_EQ(scheduler_.now() - t0, cold.time);

  // Resident: zero cost.
  const auto hit = mcu_.estimate_load(kV0);
  EXPECT_TRUE(hit.resident);
  EXPECT_EQ(hit.time, sim::SimTime::zero());

  // In-place upgrade (one eviction, kDirty streamed windows): still exact.
  const auto upgrade = mcu_.estimate_load(kV1);
  ASSERT_TRUE(upgrade.known);
  EXPECT_EQ(upgrade.frames_matched, kFrames - kDirty);
  EXPECT_EQ(upgrade.evictions, 1u);
  t0 = scheduler_.now();
  mcu_.ensure_loaded(kV1);
  EXPECT_EQ(scheduler_.now() - t0, upgrade.time);

  // Unknown function: not provisioned, nothing to model.
  EXPECT_FALSE(mcu_.estimate_load(4242).known);
}

TEST_F(DeltaMcuFixture, AutoCodecPicksARealCodecAndRecordsIt) {
  const auto& spec = algorithms::spec(KernelId::kXtea);
  const auto record =
      mcu_.store_function(algorithms::function_id(KernelId::kXtea),
                          spec.make_bitstream(fabric_.geometry()),
                          compress::CodecId::kAuto);
  EXPECT_NE(record.codec, compress::CodecId::kAuto);
  EXPECT_EQ(mcu_.stats().codec_picks.at(record.codec), 1u);

  // The pick is the stored codec: the load decompresses with it.
  const Bytes input = spec.make_input(1, 9);
  const auto fid = algorithms::function_id(KernelId::kXtea);
  mcu_.ensure_loaded(fid);
  EXPECT_EQ(mcu_.execute_invoke(fid, input).output, spec.software(input));
}

// Randomized property test: a seeded stream of pin / unpin / invoke /
// evict / defragment operations against a shadow model of the pin table.
// The driver-visible invariants must hold after every step, whatever the
// interleaving: pin_refs mirrors the model exactly, pinned functions are
// always resident (eviction pressure and compaction never touch them), and
// releasing every reference leaves the card fully evictable again.
TEST_F(McuFixture, RandomizedPinLoadEvictProperty) {
  const std::vector<KernelId> kernels = {
      KernelId::kAdder32, KernelId::kParity32, KernelId::kCrc32,
      KernelId::kAes128,  KernelId::kSha256,   KernelId::kMatMul,
      KernelId::kFft,     KernelId::kFir16};
  std::vector<memory::FunctionId> bank;
  for (const KernelId k : kernels) {
    provision(k);
    bank.push_back(algorithms::function_id(k));
  }

  Prng rng(20260808);
  std::map<memory::FunctionId, unsigned> model;  // shadow pin table
  const auto check_model = [&] {
    std::size_t pinned_functions = 0;
    for (const memory::FunctionId id : bank) {
      const auto it = model.find(id);
      const unsigned want = it == model.end() ? 0 : it->second;
      ASSERT_EQ(mcu_.pin_count(id), want) << "function " << id;
      if (want == 0) continue;
      ++pinned_functions;
      ASSERT_TRUE(mcu_.is_pinned(id));
      ASSERT_TRUE(mcu_.is_resident(id))
          << "pinned function " << id << " was evicted";
    }
    ASSERT_EQ(mcu_.pinned_count(), pinned_functions);
  };

  for (int step = 0; step < 300; ++step) {
    const memory::FunctionId id = bank[rng.next_below(bank.size())];
    switch (rng.next_below(8)) {
      case 0:
      case 1:
      case 2: {  // invoke: load (evicting under pressure) + execute
        if (!mcu_.is_resident(id) && !mcu_.load_feasible(id)) break;
        mcu_.ensure_loaded(id);
        const ExecutedInvoke result =
            mcu_.execute_invoke(id, algorithms::bank_input(id, 1, rng.next()));
        ASSERT_FALSE(result.output.empty());
        ASSERT_TRUE(mcu_.is_resident(id));
        break;
      }
      case 3:
      case 4:  // pin: cap concurrent pins so big kernels stay placeable
        if (!mcu_.is_resident(id) || mcu_.pinned_count() >= 3) break;
        mcu_.pin(id);
        ++model[id];
        break;
      case 5:  // unpin (sometimes of an unpinned function: must no-op)
        mcu_.unpin(id);
        if (const auto it = model.find(id); it != model.end())
          if (--it->second == 0) model.erase(it);
        break;
      case 6:  // evict an unpinned resident function
        if (!mcu_.is_resident(id) || mcu_.is_pinned(id)) break;
        mcu_.evict(id);
        ASSERT_FALSE(mcu_.is_resident(id));
        break;
      case 7:  // compaction relocates frames; the driver refuses to move
                // pinned ones at all
        if (mcu_.pinned_count() > 0) {
          EXPECT_THROW(mcu_.defragment(), Error);
        } else {
          mcu_.defragment();
        }
        break;
    }
    check_model();
  }

  // Release everything: the card must end fully unpinned with every
  // remaining resident function still invokable.
  for (auto& [id, refs] : model)
    while (refs-- > 0) mcu_.unpin(id);
  model.clear();
  EXPECT_EQ(mcu_.pinned_count(), 0u);
  for (const memory::FunctionId id : bank) {
    if (!mcu_.is_resident(id)) continue;
    EXPECT_FALSE(mcu_.execute_invoke(id, algorithms::bank_input(id, 1, 999))
                     .output.empty());
  }
}

TEST_F(DeltaMcuFixture, ResetFabricClearsTheDeltaTracker) {
  provision_versions();
  mcu_.ensure_loaded(kV0);
  mcu_.evict(kV0);
  mcu_.reset_fabric();

  // A full reset wipes frame content, so the tracker must forget its
  // hashes — stale matches would skip windows whose frames are now blank.
  const auto load = mcu_.ensure_loaded(kV0);
  EXPECT_EQ(load.frames_configured, kFrames);
  EXPECT_EQ(mcu_.stats().frames_skipped_delta, 0u);
}

}  // namespace
}  // namespace aad::mcu
