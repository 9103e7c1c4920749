// On-demand DSP: a sensor pipeline that alternates between time-domain
// filtering (FIR) and spectral analysis (FFT) phases.
//
// The two kernels together need 22 of 48 frames, so they coexist; a
// periodic "batch analytics" phase additionally wants matmul + sha256 +
// aes128 (36 more frames, 58 total), which forces swapping.  The example shows how phase
// changes amortize reconfiguration: within a phase everything is a config
// hit, and the swap cost is paid once per phase boundary.
//
// Build & run:  ./build/examples/ondemand_dsp
#include <cmath>
#include <cstdio>

#include "core/coprocessor.h"
#include "mcu/report.h"

namespace {

using aad::algorithms::KernelId;

aad::Bytes make_tone_block(std::size_t samples, double freq_fraction,
                           double amplitude) {
  aad::Bytes out(samples * 2);
  for (std::size_t i = 0; i < samples; ++i) {
    const double v = amplitude *
                     std::sin(2.0 * 3.14159265358979 * freq_fraction *
                              static_cast<double>(i));
    const auto s = static_cast<std::int16_t>(v);
    out[2 * i] = static_cast<aad::Byte>(static_cast<std::uint16_t>(s));
    out[2 * i + 1] =
        static_cast<aad::Byte>(static_cast<std::uint16_t>(s) >> 8);
  }
  return out;
}

}  // namespace

int main() {
  aad::core::AgileCoprocessor card;
  for (KernelId id : {KernelId::kFir16, KernelId::kFft, KernelId::kMatMul,
                      KernelId::kSha256, KernelId::kAes128})
    card.download(id);

  std::puts("phase        step  kernel   latency(us)  hit  resident-frames");
  std::puts(std::string(68, '-').c_str());

  auto show = [&](const char* phase, int step,
                  const aad::core::ServerRequest& out, const char* kernel) {
    unsigned frames = 0;
    for (const auto& [fn, entry] : card.mcu().frame_table())
      frames += static_cast<unsigned>(entry.frames.size());
    std::printf("%-12s %-5d %-8s %-12.1f %-4s %u/48\n", phase, step, kernel,
                out.latency().microseconds(),
                out.load.hit ? "yes" : "NO", frames);
  };

  for (int cycle = 0; cycle < 2; ++cycle) {
    std::printf("frame map: %s\n", aad::mcu::frame_map(card.mcu()).c_str());
    // --- streaming phase: FIR filter then FFT on each block --------------
    for (int step = 0; step < 3; ++step) {
      const auto block =
          make_tone_block(256, /*freq=*/0.05 + 0.1 * step, 12000.0);
      const auto filtered = card.invoke(KernelId::kFir16, block);
      show("stream", step, filtered, "fir16");
      const auto spectrum = card.invoke(KernelId::kFft, filtered.output);
      show("stream", step, spectrum, "fft");
    }
    // --- analytics phase: correlation matrix + integrity digest ----------
    for (int step = 0; step < 2; ++step) {
      const auto& mm = aad::algorithms::spec(KernelId::kMatMul);
      const auto a = card.invoke(KernelId::kMatMul,
                                 mm.make_input(16, 77 + step));
      show("analytics", step, a, "matmul");
      const auto d = card.invoke(KernelId::kSha256, a.output);
      show("analytics", step, d, "sha256");
      // Encrypt the digest for the uplink report (key || digest-block).
      const auto& aes = aad::algorithms::spec(KernelId::kAes128);
      aad::Bytes report = aes.make_input(1, 5);  // 16B key + 16B block
      std::copy(d.output.begin(), d.output.begin() + 16, report.begin() + 16);
      const auto e = card.invoke(KernelId::kAes128, report);
      show("analytics", step, e, "aes128");
    }
  }

  const auto stats = card.stats();
  std::printf("\nphase working sets swapped on demand: %llu evictions, "
              "%llu frames reconfigured, %.1f%% hit rate, simulated time "
              "%.2f ms\n",
              static_cast<unsigned long long>(stats.device.evictions),
              static_cast<unsigned long long>(stats.device.frames_configured),
              100.0 * static_cast<double>(stats.device.config_hits) /
                  static_cast<double>(stats.device.invocations),
              stats.uptime.milliseconds());
  return 0;
}
