// RSA offload: the workload class where a PCI 32/33 co-processor genuinely
// beats the host.
//
// Streaming kernels (ciphers, hashes) are bus-bound on a 133 MB/s PCI slot,
// but modular exponentiation moves a few hundred bytes and computes for
// milliseconds — exactly the profile the algorithm-agile crypto engines of
// the paper's refs [1][2] targeted.  This example runs a small TLS-style
// handshake farm: the card grinds 1024-bit private-key operations while the
// cheap per-connection symmetric work stays on the host.
//
// Build & run:  ./build/examples/rsa_offload
#include <cstdio>

#include "core/coprocessor.h"

int main() {
  using aad::algorithms::KernelId;

  aad::core::AgileCoprocessor card;
  card.download(KernelId::kModExp);

  const auto& spec = aad::algorithms::spec(KernelId::kModExp);

  std::puts("handshake  width  host(ms)   card(ms)   speedup  hit");
  std::puts(std::string(60, '-').c_str());

  double host_total = 0;
  double card_total = 0;
  for (int handshake = 0; handshake < 6; ++handshake) {
    // blocks=4 -> 1024-bit operands (base || exponent || modulus).
    const aad::Bytes op =
        spec.make_input(4, 1000 + static_cast<std::uint64_t>(handshake));
    const auto hw = card.invoke(KernelId::kModExp, op);
    const auto sw = card.run_on_host(KernelId::kModExp, op);
    if (hw.output != sw.output) {
      std::puts("MISMATCH — modexp kernel diverged from host result");
      return 1;
    }
    host_total += sw.latency.milliseconds();
    card_total += hw.latency().milliseconds();
    std::printf("%-10d %-6d %-10.2f %-10.2f %-8.2f %s\n", handshake, 1024,
                sw.latency.milliseconds(), hw.latency().milliseconds(),
                sw.latency.milliseconds() / hw.latency().milliseconds(),
                hw.load.hit ? "yes" : "no");
  }

  std::printf("\ntotal: host %.2f ms vs card %.2f ms -> %.2fx; the first "
              "call amortizes %u frames of partial reconfiguration\n",
              host_total, card_total, host_total / card_total,
              spec.nominal_frames);
  std::printf("bus payload per op: %zu B in / %zu B out — compute density "
              "is what beats the PCI wall\n",
              static_cast<std::size_t>(384), static_cast<std::size_t>(128));
  return 0;
}
