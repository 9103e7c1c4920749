// End-to-end tests of the public AgileCoprocessor API: Figure 1 assembled —
// PCI download, on-demand partial reconfiguration, execution, collection —
// checked bit-exact against the host software baseline for every kernel.
#include <gtest/gtest.h>

#include "core/coprocessor.h"
#include "sim/scheduler.h"

namespace aad::core {
namespace {

using algorithms::KernelId;

TEST(CoprocessorEndToEnd, EveryKernelMatchesHostBaseline) {
  AgileCoprocessor cp;
  cp.download_all();
  for (const auto& spec : algorithms::catalog()) {
    const Bytes input = spec.make_input(2, 1234);
    const auto hw = cp.invoke(spec.id, input);
    const auto sw = cp.run_on_host(spec.id, input);
    EXPECT_EQ(hw.output, sw.output) << spec.name;
    EXPECT_GT(hw.latency(), sim::SimTime::zero()) << spec.name;
  }
}

TEST(CoprocessorEndToEnd, SecondCallIsConfigHit) {
  AgileCoprocessor cp;
  cp.download(KernelId::kSha256);
  const auto& spec = algorithms::spec(KernelId::kSha256);
  const Bytes input = spec.make_input(4, 5);
  const auto cold = cp.invoke(KernelId::kSha256, input);
  const auto warm = cp.invoke(KernelId::kSha256, input);
  EXPECT_FALSE(cold.load.hit);
  EXPECT_TRUE(warm.load.hit);
  EXPECT_LT(warm.latency(), cold.latency());
  EXPECT_EQ(warm.output, cold.output);
}

TEST(CoprocessorEndToEnd, OnDemandSwappingUnderPressure) {
  AgileCoprocessor cp;
  cp.download(KernelId::kAes128);
  cp.download(KernelId::kFft);
  cp.download(KernelId::kMatMul);
  cp.download(KernelId::kSha256);

  // Cycle through all four (12+16+14+10 = 52 frames > 48): every round
  // trips at least one eviction, yet results stay correct.
  for (int round = 0; round < 3; ++round) {
    for (KernelId id : {KernelId::kAes128, KernelId::kFft, KernelId::kMatMul,
                        KernelId::kSha256}) {
      const auto& spec = algorithms::spec(id);
      const Bytes input = spec.make_input(1, static_cast<std::uint64_t>(round));
      const auto hw = cp.invoke(id, input);
      EXPECT_EQ(hw.output, spec.software(input)) << spec.name;
    }
  }
  const auto stats = cp.stats();
  EXPECT_GT(stats.device.evictions, 0u);
  EXPECT_GT(stats.device.config_misses, 4u);  // reloads happened
}

TEST(CoprocessorApi, PreloadMakesFirstInvokeAHit) {
  AgileCoprocessor cp;
  cp.download(KernelId::kXtea);
  const auto load = cp.preload(KernelId::kXtea);
  EXPECT_FALSE(load.hit);
  const auto& spec = algorithms::spec(KernelId::kXtea);
  const auto result = cp.invoke(KernelId::kXtea, spec.make_input(1, 9));
  EXPECT_TRUE(result.load.hit);
}

TEST(CoprocessorApi, EvictForcesReconfiguration) {
  AgileCoprocessor cp;
  cp.download(KernelId::kCrc32);
  const auto& spec = algorithms::spec(KernelId::kCrc32);
  cp.invoke(KernelId::kCrc32, spec.make_input(8, 1));
  cp.evict(KernelId::kCrc32);
  const auto again = cp.invoke(KernelId::kCrc32, spec.make_input(8, 1));
  EXPECT_FALSE(again.load.hit);
}

TEST(CoprocessorApi, StatsAndTimeAdvance) {
  AgileCoprocessor cp;
  cp.download(KernelId::kAdder32);
  const auto t0 = cp.now();
  cp.invoke(KernelId::kAdder32,
            algorithms::spec(KernelId::kAdder32).make_input(1, 1));
  EXPECT_GT(cp.now(), t0);
  const auto stats = cp.stats();
  EXPECT_EQ(stats.device.invocations, 1u);
  EXPECT_GT(stats.bus.dma_transfers, 0u);
  EXPECT_GT(stats.bus.bytes_to_device, 0u);
  EXPECT_EQ(stats.uptime, cp.now());
}

TEST(CoprocessorApi, InvokeStagesSumExactlyToLatency) {
  // The synchronous invoke is a one-request server run, so its record
  // carries the server's breakdown, and on an idle card it is exact: PCI
  // in, firmware decode, evictions, load, fabric (RAM staging + execution)
  // and PCI out add up to the host-observed latency in integer
  // picoseconds, cold and warm, for every kernel — on a fresh card per
  // kernel, and on one shared card whose later loads must evict earlier
  // kernels to make room.
  const auto ps = [](sim::SimTime t) { return t.picoseconds(); };
  const auto check = [&](AgileCoprocessor& cp,
                         const algorithms::KernelSpec& spec, bool cold) {
    const ServerRequest r = cp.invoke(spec.id, spec.make_input(2, 7));
    EXPECT_EQ(ps(r.pci_in_time) + ps(r.decode_time) + ps(r.evict_time()) +
                  ps(r.load.reconfig_time) + ps(r.execute_time) +
                  ps(r.pci_out_time),
              ps(r.latency()))
        << spec.name << (cold ? " cold" : " warm");
    // Alone on the card, the request never waits for a resource.
    EXPECT_EQ(ps(r.bus_wait()), 0) << spec.name;
    EXPECT_EQ(ps(r.device_wait()), 0) << spec.name;
    EXPECT_EQ(r.load.hit, !cold) << spec.name;
    EXPECT_EQ(r.evict_time() == sim::SimTime::zero(), r.load.evictions == 0)
        << spec.name;
    const mcu::LoadStages& l = r.load_stages;
    for (const sim::SimTime stage :
         {l.rom, l.decompress, l.configure, l.firmware}) {
      if (cold)
        EXPECT_GT(stage, sim::SimTime::zero()) << spec.name;
      else
        EXPECT_EQ(stage, sim::SimTime::zero()) << spec.name;
    }
    return r.load.evictions;
  };
  for (const auto& spec : algorithms::catalog()) {
    AgileCoprocessor cp;
    cp.download(spec.id);
    for (const bool cold : {true, false})
      EXPECT_EQ(check(cp, spec, cold), 0u) << spec.name;
  }
  AgileCoprocessor shared;
  unsigned evictions = 0;
  for (const auto& spec : algorithms::catalog()) {
    shared.download(spec.id);
    for (const bool cold : {true, false}) evictions += check(shared, spec, cold);
  }
  EXPECT_GT(evictions, 0u);  // the shared card did evict
}

TEST(CoprocessorApi, InvokeMatchesTheStagedDeviceCalls) {
  // The one stage composition is the server's: an invoke's record equals
  // decode_invoke + load_invoke + execute_invoke issued by hand on an
  // identical card at the same instants, plus the PCI command and DMA
  // costs around them.
  const auto& spec = algorithms::spec(KernelId::kAes128);
  const memory::FunctionId fid = algorithms::function_id(spec.id);
  const Bytes input = spec.make_input(4, 3);
  AgileCoprocessor card;
  card.download(spec.id);
  AgileCoprocessor twin;
  twin.download(spec.id);
  ASSERT_EQ(card.now(), twin.now());

  const ServerRequest r = card.invoke(spec.id, input);

  mcu::Mcu& mcu = twin.mcu();
  const sim::SimTime pci_in =
      twin.pci_command_overhead(4) + twin.bus().dma_to_device(input.size());
  const sim::SimTime decode = mcu.decode_invoke();
  sim::SimTime load_elapsed;
  mcu::LoadStages stages;
  const mcu::LoadResult load = mcu.load_invoke(
      fid, twin.now() + pci_in + decode, &load_elapsed, &stages);
  const mcu::ExecutedInvoke run = mcu.execute_invoke(fid, input);
  const sim::SimTime pci_out = twin.bus().dma_from_device(run.output.size()) +
                               twin.bus().register_read();

  EXPECT_EQ(r.pci_in_time, pci_in);
  EXPECT_EQ(r.decode_time, decode);
  EXPECT_EQ(r.prepare_time, decode + load_elapsed);
  EXPECT_EQ(r.load.reconfig_time, load.reconfig_time);
  EXPECT_EQ(r.load.frames_configured, load.frames_configured);
  EXPECT_EQ(r.load_stages.configure, stages.configure);
  EXPECT_EQ(r.load_stages.firmware, stages.firmware);
  EXPECT_EQ(r.execute_time, run.time);
  EXPECT_EQ(r.exec_cycles, run.exec_cycles);
  EXPECT_EQ(r.output, run.output);
  EXPECT_EQ(r.pci_out_time, pci_out);
  EXPECT_EQ(r.latency(), pci_in + decode + load_elapsed + run.time + pci_out);
}

TEST(CoprocessorApi, InvokeRefusesASchedulerWithPendingEvents) {
  // The one-request run drains the scheduler; with another owner's event
  // pending it would run that too, so it must refuse before touching
  // anything.
  sim::Scheduler scheduler;
  AgileCoprocessor card(CoprocessorConfig{}, scheduler);
  card.download(KernelId::kAdder32);
  bool fired = false;
  scheduler.schedule_at(card.now() + sim::SimTime::ms(5),
                        [&fired] { fired = true; });
  const sim::SimTime before = card.now();
  const Bytes input = algorithms::spec(KernelId::kAdder32).make_input(1, 1);
  try {
    card.invoke(KernelId::kAdder32, input);
    FAIL() << "invoke ran with an event pending";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
  EXPECT_FALSE(fired);
  EXPECT_EQ(scheduler.pending(), 1u);
  EXPECT_EQ(card.now(), before);
  EXPECT_EQ(card.stats().device.invocations, 0u);
  EXPECT_EQ(card.stats().bus.grants, 0u);

  // Once the other owner's work has drained, the card serves again.
  scheduler.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(card.invoke(KernelId::kAdder32, input).output,
            algorithms::spec(KernelId::kAdder32).software(input));
}

// Every server retains one ServerRequest per completed request (a
// perfbench reconfig_churn repetition keeps 20k of them), so the record's
// size is peak RSS: 32 more bytes once raised that workload's
// host_peak_rss_mb by 8%.  The derived waits are accessors for this reason.
#if defined(__x86_64__) && defined(__GLIBCXX__)
static_assert(sizeof(ServerRequest) <= 224,
              "ServerRequest grew: every retained record costs peak RSS");
#endif

TEST(CoprocessorApi, CodecChoiceAffectsRomFootprint) {
  AgileCoprocessor null_cp;
  AgileCoprocessor delta_cp;
  const auto raw =
      null_cp.download(KernelId::kAes128, compress::CodecId::kNull);
  const auto packed =
      delta_cp.download(KernelId::kAes128, compress::CodecId::kFrameDelta);
  EXPECT_LT(packed.compressed_size, raw.compressed_size);
}

TEST(CoprocessorApi, ColdInvokeCostsMoreThanWarmByReconfig) {
  AgileCoprocessor cp;
  cp.download(KernelId::kFft);
  const auto& spec = algorithms::spec(KernelId::kFft);
  const Bytes input = spec.make_input(8, 2);  // 256-point FFT
  const auto cold = cp.invoke(KernelId::kFft, input);
  const auto warm = cp.invoke(KernelId::kFft, input);
  const double gap_us =
      cold.latency().microseconds() - warm.latency().microseconds();
  const double reconfig_us =
      cold.load.reconfig_time.microseconds();
  EXPECT_NEAR(gap_us, reconfig_us, reconfig_us * 0.25 + 5.0);
}

TEST(CoprocessorApi, RunOnHostDoesNotTouchDevice) {
  AgileCoprocessor cp;
  cp.download(KernelId::kMd5);
  cp.run_on_host(KernelId::kMd5,
                 algorithms::spec(KernelId::kMd5).make_input(1, 1));
  EXPECT_EQ(cp.stats().device.invocations, 0u);
  EXPECT_EQ(cp.stats().bus.dma_transfers, 1u);  // only the download DMA
}

TEST(CoprocessorConfigTest, CustomGeometryWorks) {
  CoprocessorConfig config;
  config.fabric.geometry.frame_count = 24;
  config.fabric.geometry.clb_rows = 8;
  AgileCoprocessor cp(config);
  cp.download(KernelId::kParity32);
  const auto& spec = algorithms::spec(KernelId::kParity32);
  const Bytes input = spec.make_input(1, 3);
  EXPECT_EQ(cp.invoke(KernelId::kParity32, input).output,
            spec.software(input));
}

}  // namespace
}  // namespace aad::core
