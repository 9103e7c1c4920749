// Quickstart: the five-minute tour of the Agile Algorithm-On-Demand
// co-processor.
//
//   1. create a card,
//   2. download two functions into its ROM (compressed bitstreams),
//   3. invoke them on demand — the first call partially reconfigures the
//      FPGA, the second is a config hit,
//   4. read the latency breakdown and device statistics.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/coprocessor.h"

int main() {
  using aad::algorithms::KernelId;

  // 1. A default card: 48-frame / 16-CLB-row fabric, PCI 32/33, 66 MHz MCU.
  aad::core::AgileCoprocessor card;

  // 2. Provision the ROM over PCI.  Bitstreams are compressed with the
  //    frame-delta codec (the paper's "exploit CLB symmetry" idea).
  const auto sha = card.download(KernelId::kSha256);
  const auto crc = card.download(KernelId::kCrc32);
  std::printf("provisioned ROM: %s (%u frames, %u B compressed), "
              "%s (%u frames, %u B compressed)\n",
              sha.name.c_str(), sha.frames, sha.compressed_size,
              crc.name.c_str(), crc.frames, crc.compressed_size);

  // 3. Invoke on demand.  Input/output formats are per kernel; SHA-256
  //    hashes raw bytes.
  const std::string message = "agile algorithm-on-demand co-processor";
  const aad::ByteSpan payload(
      reinterpret_cast<const aad::Byte*>(message.data()), message.size());

  const auto cold = card.invoke(KernelId::kSha256, payload);
  std::printf("\nSHA-256 (cold): %.1f us end-to-end, of which %.1f us was "
              "streaming partial reconfiguration of %u frames\n",
              cold.latency().microseconds(),
              cold.load.reconfig_time.microseconds(),
              cold.load.frames_configured);

  const auto warm = card.invoke(KernelId::kSha256, payload);
  std::printf("SHA-256 (warm): %.1f us — config hit, no reconfiguration\n",
              warm.latency().microseconds());

  std::printf("digest: ");
  for (aad::Byte b : warm.output) std::printf("%02x", b);
  std::printf("\n");

  // The CRC32 kernel is a *real netlist*: it was technology-mapped to
  // LUT4s, placed into frames, and the simulated fabric executes it from
  // the configuration plane, one byte per cycle.
  const auto crc_result = card.invoke(KernelId::kCrc32, payload);
  std::printf("\nCRC-32 via the fabric (%lld cycles on the 100 MHz fabric): "
              "0x%02x%02x%02x%02x\n",
              static_cast<long long>(crc_result.exec_cycles),
              crc_result.output[3], crc_result.output[2],
              crc_result.output[1], crc_result.output[0]);

  // Cross-check against the host-only software baseline.
  const auto host = card.run_on_host(KernelId::kCrc32, payload);
  std::printf("host baseline agrees: %s\n",
              host.output == crc_result.output ? "yes" : "NO (bug!)");

  // 4. Statistics.
  const auto stats = card.stats();
  std::printf("\ndevice stats: %llu invocations, %llu config hits, "
              "%llu misses, %llu frames configured\n",
              static_cast<unsigned long long>(stats.device.invocations),
              static_cast<unsigned long long>(stats.device.config_hits),
              static_cast<unsigned long long>(stats.device.config_misses),
              static_cast<unsigned long long>(stats.device.frames_configured));
  std::printf("PCI: %llu B to card, %llu B from card, bus busy %.1f us\n",
              static_cast<unsigned long long>(stats.bus.bytes_to_device),
              static_cast<unsigned long long>(stats.bus.bytes_from_device),
              stats.bus.bus_time.microseconds());
  std::printf("simulated uptime: %.2f ms\n", stats.uptime.milliseconds());
  return 0;
}
