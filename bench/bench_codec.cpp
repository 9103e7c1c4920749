// Experiment C — delta reconfiguration, adaptive codec selection, and the
// shared load-cost model.
//
// Paper hook (§2.4 + open problems): reconfiguration cost should scale
// with the frames a function CHANGES, not with its size.  The MCU's delta
// tracker hashes per-frame fabric content and skips matched windows of a
// load entirely (ROM fetch, decompression and config-port write), so an
// incremental variant — the edit-recompile loop of a kernel whose versions
// differ in a couple of frames — reloads only its dirty frames.  Four
// tables:
//
//   C1 — codec shoot-out on a Zipf-skewed bank trace, including the kAuto
//        download-time pick (trial-compress, model the cold load, choose),
//   C2 — the headline: an incremental-variant trace under full-image loads
//        vs delta reconfiguration vs delta + auto codec,
//   C3 — device scheduling with a real cost model: FIFO vs
//        shortest-reconfig-first ordering by Mcu::estimated_load_cost,
//   C4 — fleet routing: binary residency affinity vs the cheap-delta tier
//        (cheapest expected reconfiguration, FleetConfig::cost_routing).
//
// Flags (bench_util.h parser): `--json <path>` captures the headline
// metrics; `--clients N` (default 4), `--requests N` per client (default
// 24), `--versions N` per chain (default 4) and `--advance P` (default
// 0.5) rescale the incremental tables; `--codec <name|auto>` narrows C1.
#include "bench_util.h"

#include <vector>

#include "bitstream/synth.h"
#include "core/fleet.h"
#include "core/server.h"
#include "workload/multiclient.h"
#include "workload/replay.h"

namespace {

using namespace aad;
using algorithms::KernelId;

using bench::request_input;

unsigned flag_clients() {
  return static_cast<unsigned>(bench::flags().get_int("clients", 4));
}
std::size_t flag_requests() {
  return static_cast<std::size_t>(bench::flags().get_int("requests", 24));
}
std::size_t flag_versions() {
  return static_cast<std::size_t>(bench::flags().get_int("versions", 4));
}

// The incremental-variant chains: two kernels, each with a version chain
// whose adjacent versions share all but kDirtyFrames frames — a 12-frame
// footprint with 2-frame edits, the shape where a full-image reload pays
// 6x what actually changed.
constexpr unsigned kChains = 2;
constexpr unsigned kChainFrames = 12;
constexpr unsigned kDirtyFrames = 2;
constexpr std::uint32_t kChainBase = 1000;  ///< variant function ids

constexpr KernelId kChainKernels[kChains] = {KernelId::kXtea,
                                             KernelId::kFir16};

std::uint32_t chain_function(unsigned chain, std::size_t version) {
  return kChainBase + chain * 100 + static_cast<std::uint32_t>(version);
}

/// Version v+1 splices kDirtyFrames frames from a differently-seeded
/// synthesis of the same shape into version v — realistic frame content on
/// both sides of every edit, and a known dirty-frame count per step.
/// (Edit positions cycle through the footprint, so chains longer than
/// kChainFrames / kDirtyFrames + 1 versions revisit earlier content.)
std::vector<std::vector<bitstream::Bitstream>> make_chains(
    std::size_t versions, const fabric::FrameGeometry& geometry = {}) {
  std::vector<std::vector<bitstream::Bitstream>> chains;
  chains.reserve(kChains);
  for (unsigned g = 0; g < kChains; ++g) {
    const auto& spec = algorithms::spec(kChainKernels[g]);
    bitstream::SynthParams params;
    params.frames = kChainFrames;
    params.seed = 90 + g;
    bitstream::Bitstream current = bitstream::synthesize_behavioral(
        spec.name, algorithms::function_id(kChainKernels[g]),
        spec.input_width, spec.output_width, geometry, params);
    params.seed = 900 + g;
    const bitstream::Bitstream edits = bitstream::synthesize_behavioral(
        spec.name, algorithms::function_id(kChainKernels[g]),
        spec.input_width, spec.output_width, geometry, params);

    std::vector<bitstream::Bitstream> chain;
    chain.reserve(versions);
    for (std::size_t v = 0; v < versions; ++v) {
      if (v > 0)
        for (unsigned d = 0; d < kDirtyFrames; ++d) {
          const std::size_t f = ((v - 1) * kDirtyFrames + d) % kChainFrames;
          current.frames[f] = edits.frames[f];
        }
      chain.push_back(current);
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

/// request_input for the variant ids: every version of a chain runs the
/// chain's behavioral kernel, so its payload is that kernel's make_input
/// (the catalog cannot look variant ids up).
Bytes chain_input(std::uint32_t function, std::size_t blocks,
                  std::size_t index) {
  if (function >= kChainBase) {
    const unsigned g = (function - kChainBase) / 100;
    return algorithms::spec(kChainKernels[g]).make_input(blocks, 1000 + index);
  }
  return request_input(function, blocks, index);
}

workload::MultiClientTrace incremental_trace(workload::ArrivalMode mode,
                                             std::size_t versions,
                                             std::uint64_t seed) {
  workload::IncrementalConfig ic;
  ic.clients = flag_clients();
  ic.requests_per_client = flag_requests();
  for (unsigned g = 0; g < kChains; ++g) {
    std::vector<workload::FunctionId> chain;
    for (std::size_t v = 0; v < versions; ++v)
      chain.push_back(chain_function(g, v));
    ic.groups.push_back(std::move(chain));
  }
  ic.seed = seed;
  ic.payload_blocks = 4;
  ic.mode = mode;
  ic.advance = bench::flags().get_double("advance", 0.5);
  ic.mean_interarrival = sim::SimTime::us(120);
  return workload::make_incremental(ic);
}

struct CaseResult {
  core::ServerStats server;
  mcu::McuStats device;
};

CaseResult run_case(bool delta, compress::CodecId codec,
                    core::DevicePolicy policy,
                    const std::vector<std::vector<bitstream::Bitstream>>& chains,
                    const workload::MultiClientTrace& trace) {
  core::CoprocessorConfig cc;
  cc.mcu.engine.delta_reconfig = delta;
  core::AgileCoprocessor card(cc);
  for (unsigned g = 0; g < chains.size(); ++g)
    for (std::size_t v = 0; v < chains[g].size(); ++v)
      card.download_bitstream(chain_function(g, v), chains[g][v], codec);
  core::ServerConfig sc;
  sc.device_policy = policy;
  core::CoprocessorServer server(card, sc);
  if (auto* sink = bench::trace_sink())
    server.attach_trace(*sink, std::string("codec case ") +
                                   (delta ? "delta " : "full ") +
                                   core::to_string(policy));
  workload::replay(server, trace, chain_input);
  server.run();
  return {server.stats(), card.mcu().stats()};
}

std::string json_codec(compress::CodecId codec) {
  std::string name = to_string(codec);
  for (char& c : name)
    if (c == '-') c = '_';
  return name;
}

double bytes_per_miss(const mcu::McuStats& device) {
  return device.config_misses
             ? static_cast<double>(device.compressed_bytes_streamed) /
                   static_cast<double>(device.config_misses)
             : 0.0;
}

void codec_sweep() {
  std::puts("\n=== C1: codec shoot-out, zipf(1.1) bank trace ===");
  std::puts("(one fresh card per codec, full kernel bank; \"auto\" "
            "trial-compresses the candidates at download time and picks the "
            "cheapest modeled cold load, near-ties going to the smallest "
            "stream)");
  const std::vector<int> widths = {14, 12, 10, 14, 12};
  bench::print_row({"codec", "rom bytes", "req/s", "bytes/miss", "p99(us)"},
                   widths);
  bench::print_rule(widths);

  workload::MultiClientConfig wc;
  wc.clients = flag_clients();
  wc.requests_per_client = flag_requests();
  wc.functions = algorithms::function_bank();
  wc.seed = 23;
  wc.zipf_s = 1.1;
  wc.payload_blocks = 4;
  wc.mode = workload::ArrivalMode::kClosedLoop;
  const auto trace = workload::make_multi_client(wc);

  std::vector<compress::CodecId> codecs = compress::all_codec_ids();
  codecs.push_back(compress::CodecId::kAuto);
  if (const auto pick = bench::codec_flag()) codecs = {*pick};

  for (const auto codec : codecs) {
    core::AgileCoprocessor card;
    card.download_all(codec);
    core::CoprocessorServer server(card);
    if (auto* sink = bench::trace_sink())
      server.attach_trace(*sink,
                          std::string("codec sweep ") + to_string(codec));
    workload::replay(server, trace, request_input);
    server.run();
    const auto stats = server.stats();
    const auto& device = card.mcu().stats();
    bench::print_row(
        {to_string(codec), std::to_string(card.mcu().rom().data_bytes()),
         bench::fmt("%.0f", stats.throughput_rps),
         bench::fmt("%.0f", bytes_per_miss(device)),
         bench::fmt("%.1f", stats.latency.p99.microseconds())},
        widths);
    const std::string suffix = "_" + json_codec(codec);
    bench::json().set("codec_rps" + suffix, stats.throughput_rps);
    bench::json().set("codec_bytes_per_miss" + suffix, bytes_per_miss(device));
    if (codec == compress::CodecId::kAuto) {
      std::string picks;
      for (const auto& [chosen, count] : device.codec_picks) {
        picks += picks.empty() ? "" : ", ";
        picks += to_string(chosen);
        picks += " x" + std::to_string(count);
        bench::json().set("codec_auto_picks_" + json_codec(chosen), count);
      }
      std::printf("(auto picked: %s)\n", picks.c_str());
    }
  }
}

void delta_headline() {
  std::printf(
      "\n=== C2: incremental-variant trace — full-image vs delta "
      "reconfiguration (%u clients x %zu requests, %u-frame variants, "
      "%u dirty frames per version) ===\n",
      flag_clients(), flag_requests(), kChainFrames, kDirtyFrames);
  const std::vector<int> widths = {22, 10, 14, 14, 10};
  bench::print_row({"mode", "req/s", "bytes/miss", "delta-skips", "hit%"},
                   widths);
  bench::print_rule(widths);

  const auto chains = make_chains(flag_versions());
  const auto trace = incremental_trace(workload::ArrivalMode::kClosedLoop,
                                       flag_versions(), 29);

  struct Case {
    const char* label;
    const char* key;
    bool delta;
    compress::CodecId codec;
  };
  double full_rps = 0.0, delta_rps = 0.0;
  for (const Case c :
       {Case{"full-image", "full", false, compress::CodecId::kFrameDelta},
        Case{"delta", "delta", true, compress::CodecId::kFrameDelta},
        Case{"delta + auto codec", "delta_auto", true,
             compress::CodecId::kAuto}}) {
    const auto r =
        run_case(c.delta, c.codec, core::DevicePolicy::kFifo, chains, trace);
    const double hit_rate =
        r.device.invocations ? static_cast<double>(r.device.config_hits) /
                                   static_cast<double>(r.device.invocations)
                             : 0.0;
    bench::print_row({c.label, bench::fmt("%.0f", r.server.throughput_rps),
                      bench::fmt("%.0f", bytes_per_miss(r.device)),
                      bench::fmt_u(r.device.frames_skipped_delta),
                      bench::fmt("%.0f", 100.0 * hit_rate)},
                     widths);
    if (std::string(c.key) == "full") full_rps = r.server.throughput_rps;
    if (std::string(c.key) == "delta") delta_rps = r.server.throughput_rps;
    const std::string suffix = std::string("_") + c.key;
    bench::json().set("codec_incremental_rps" + suffix,
                      r.server.throughput_rps);
    bench::json().set("codec_incremental_bytes_per_miss" + suffix,
                      bytes_per_miss(r.device));
    bench::json().set("codec_incremental_delta_skips" + suffix,
                      r.device.frames_skipped_delta);
  }
  const double speedup = full_rps > 0.0 ? delta_rps / full_rps : 0.0;
  std::printf("(delta reconfiguration speedup on this trace: %.2fx)\n",
              speedup);
  bench::json().set("codec_delta_speedup", speedup);
}

void policy_with_cost_model() {
  std::puts(
      "\n=== C3: device scheduling against the load-cost model, delta on "
      "===");
  std::puts("(open-loop incremental trace; shortest-reconfig-first orders "
            "the ready queue by Mcu::estimated_load_cost — hits and cheap "
            "delta upgrades jump ahead of cold loads)");
  const std::vector<int> widths = {22, 10, 12, 12};
  bench::print_row({"device policy", "req/s", "p50(us)", "p99(us)"}, widths);
  bench::print_rule(widths);

  const auto chains = make_chains(flag_versions());
  const auto trace = incremental_trace(workload::ArrivalMode::kOpenLoop,
                                       flag_versions(), 31);
  struct Row {
    core::DevicePolicy policy;
    const char* key;
  };
  for (const Row row :
       {Row{core::DevicePolicy::kFifo, "fifo"},
        Row{core::DevicePolicy::kShortestReconfigFirst, "shortest_first"}}) {
    const auto r = run_case(true, compress::CodecId::kFrameDelta, row.policy,
                            chains, trace);
    bench::print_row({core::to_string(row.policy),
                      bench::fmt("%.0f", r.server.throughput_rps),
                      bench::fmt("%.1f", r.server.latency.p50.microseconds()),
                      bench::fmt("%.1f", r.server.latency.p99.microseconds())},
                     widths);
    const std::string suffix = std::string("_") + row.key;
    bench::json().set("codec_policy_rps" + suffix, r.server.throughput_rps);
    bench::json().set("codec_policy_p99_us" + suffix,
                      r.server.latency.p99.microseconds());
  }
}

void fleet_cost_routing() {
  std::puts("\n=== C4: fleet routing — binary affinity vs cheapest expected "
            "reconfiguration, 2 cards, delta on ===");
  std::puts("(one client per chain, 24-frame cards: the version chains do "
            "not fit the fleet, so residency is transient and every advance "
            "misses fleet-wide.  Binary affinity falls back to least-queued "
            "— a cold load on whichever card — while cost routing sends the "
            "advance to the card whose fabric still matches the previous "
            "version's frames)");
  const std::vector<int> widths = {22, 10, 8, 13, 11};
  bench::print_row({"routing", "req/s", "hit%", "delta-routed", "fallback"},
                   widths);
  bench::print_rule(widths);

  fabric::FrameGeometry geometry;
  geometry.frame_count = 2 * kChainFrames;
  const auto chains = make_chains(flag_versions(), geometry);
  // One client walking each chain isolates the routing decision: the only
  // cross-card question is where an advance's load lands.
  workload::IncrementalConfig ic;
  ic.clients = kChains;
  ic.requests_per_client = flag_requests();
  for (unsigned g = 0; g < kChains; ++g) {
    std::vector<workload::FunctionId> chain;
    for (std::size_t v = 0; v < flag_versions(); ++v)
      chain.push_back(chain_function(g, v));
    ic.groups.push_back(std::move(chain));
  }
  ic.seed = 37;
  ic.payload_blocks = 4;
  ic.mode = workload::ArrivalMode::kOpenLoop;
  ic.advance = bench::flags().get_double("advance", 0.5);
  ic.mean_interarrival = sim::SimTime::us(120);
  const auto trace = workload::make_incremental(ic);
  for (const bool cost : {false, true}) {
    core::FleetConfig fc;
    fc.cards = 2;
    fc.policy = core::DispatchPolicy::kResidencyAffinity;
    fc.cost_routing = cost;
    fc.card.mcu.engine.delta_reconfig = true;
    // Two 12-frame functions per card: routing decides between a cold load
    // and a delta upgrade on every advance, not just before warm-up.
    fc.card.fabric.geometry = geometry;
    core::CoprocessorFleet fleet(fc);
    if (auto* sink = bench::trace_sink())
      fleet.attach_trace(*sink, std::string("codec routing cost=") +
                                    (cost ? "on" : "off"));
    for (unsigned g = 0; g < chains.size(); ++g)
      for (std::size_t v = 0; v < chains[g].size(); ++v)
        fleet.download_bitstream(chain_function(g, v), chains[g][v],
                                 compress::CodecId::kFrameDelta);
    workload::replay(fleet, trace, chain_input);
    fleet.run();
    const auto stats = fleet.stats();
    bench::print_row({cost ? "cheapest-reconfig" : "binary affinity",
                      bench::fmt("%.0f", stats.throughput_rps),
                      bench::fmt("%.0f", 100.0 * stats.hit_rate),
                      bench::fmt_u(stats.delta_routed),
                      bench::fmt_u(stats.affinity_fallback)},
                     widths);
    const std::string suffix = cost ? "_cost" : "_binary";
    bench::json().set("codec_fleet_rps" + suffix, stats.throughput_rps);
    bench::json().set("codec_fleet_hit_rate" + suffix, stats.hit_rate);
    if (cost) {
      bench::json().set("codec_fleet_delta_routed", stats.delta_routed);
      bench::json().set("codec_fleet_frames_skipped",
                        stats.frames_skipped_delta);
    }
  }
}

}  // namespace

void run_experiment() {
  codec_sweep();
  delta_headline();
  policy_with_cost_model();
  fleet_cost_routing();
}
