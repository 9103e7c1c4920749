// Crypto agility: the workload the paper's lineage targets (refs [1] and
// [2] are algorithm-agile crypto co-processors for IPSec-era stacks).
//
// A gateway terminates sessions that negotiated different transforms
// (AES-128, DES, XTEA for confidentiality; SHA-1, SHA-256, MD5 for
// integrity).  The whole transform bank does not fit the FPGA at once
// (49 frames of demand on a 48-frame device), so the mini-OS swaps
// functions on demand with LRU replacement — the co-processor stays
// "algorithm agile" without host intervention.
//
// Build & run:  ./build/examples/crypto_agility
#include <cstdio>
#include <map>

#include "core/coprocessor.h"
#include "workload/trace.h"

namespace {

using aad::algorithms::KernelId;

struct Session {
  const char* peer;
  KernelId cipher;
  KernelId digest;
  std::size_t packets;
};

}  // namespace

int main() {
  aad::core::CoprocessorConfig config;
  config.mcu.policy = aad::mcu::PolicyKind::kLru;  // the paper's policy
  aad::core::AgileCoprocessor card(config);

  for (KernelId id : {KernelId::kAes128, KernelId::kDes, KernelId::kXtea,
                      KernelId::kSha1, KernelId::kSha256, KernelId::kMd5})
    card.download(id);

  // Three tunnels with different negotiated transforms, serviced in an
  // interleaved round-robin (the adversarial case for a fixed-function
  // accelerator, the bread-and-butter case for an agile one).
  const Session sessions[] = {
      {"10.0.0.2  (ESP aes128 + sha256)", KernelId::kAes128,
       KernelId::kSha256, 6},
      {"10.0.0.7  (ESP des    + sha1)", KernelId::kDes, KernelId::kSha1, 6},
      {"10.0.0.9  (ESP xtea   + md5)", KernelId::kXtea, KernelId::kMd5, 6},
  };

  std::puts("packet  session                             cipher  digest  "
            "latency(us)  reconfig(us)");
  std::puts(std::string(96, '-').c_str());

  // Packets arrive in per-tunnel bursts (TCP windows, VPN bulk transfers),
  // so each session's transforms are loaded once per burst and then hit.
  std::map<const char*, std::uint64_t> seq;
  double total_us = 0;
  std::size_t packet_count = 0;
  for (std::size_t round = 0; round < 2; ++round) {
    for (const Session& s : sessions) {
      for (std::size_t burst = 0; burst < s.packets / 2; ++burst) {
        // Encrypt a 256-byte payload then hash the ciphertext.
        const auto& cipher_spec = aad::algorithms::spec(s.cipher);
        const aad::Bytes packet =
            cipher_spec.make_input(256 / 16, 1000 * round + seq[s.peer]);
        const auto enc = card.invoke(s.cipher, packet);
        const auto mac = card.invoke(s.digest, enc.output);
        const double us =
            enc.latency().microseconds() + mac.latency().microseconds();
        total_us += us;
        ++packet_count;
        const double reconfig_us =
            enc.load.reconfig_time.microseconds() +
            mac.load.reconfig_time.microseconds();
        std::printf("%-7llu %-35s %-7s %-7s %-12.1f %.1f\n",
                    static_cast<unsigned long long>(seq[s.peer]++), s.peer,
                    aad::algorithms::spec(s.cipher).name.c_str(),
                    aad::algorithms::spec(s.digest).name.c_str(), us,
                    reconfig_us);
      }
    }
  }

  const auto stats = card.stats();
  std::printf("\n%llu transform invocations, %.1f%% config hits, "
              "%llu evictions (LRU), mean %.1f us/packet\n",
              static_cast<unsigned long long>(stats.device.invocations),
              100.0 * static_cast<double>(stats.device.config_hits) /
                  static_cast<double>(stats.device.invocations),
              static_cast<unsigned long long>(stats.device.evictions),
              total_us / static_cast<double>(packet_count));
  std::printf("frames configured over the run: %llu "
              "(full-device reloads would have cost %llu)\n",
              static_cast<unsigned long long>(stats.device.frames_configured),
              static_cast<unsigned long long>(
                  stats.device.config_misses *
                  card.fabric().geometry().frame_count));
  return 0;
}
