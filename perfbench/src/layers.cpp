#include "layers.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "algorithms/kernels.h"
#include "common/crc32.h"
#include "common/prng.h"
#include "compress/codec.h"
#include "core/coprocessor.h"
#include "sim/scheduler.h"
#include "telemetry/trace_sink.h"
#include "timing.h"

namespace perfbench {

namespace {

using namespace aad;
using algorithms::KernelId;

/// Host seconds per call of `fn`: calls it until at least `min_s` has
/// passed and it ran at least `min_calls` times.
double per_call_s(const std::function<void()>& fn, double min_s = 0.02,
                  std::size_t min_calls = 3) {
  const auto start = Clock::now();
  std::size_t calls = 0;
  double elapsed = 0.0;
  do {
    fn();
    ++calls;
    elapsed = seconds_since(start);
  } while (elapsed < min_s || calls < min_calls);
  return elapsed / static_cast<double>(calls);
}

bool is_netlist(std::uint32_t function) {
  return algorithms::spec(static_cast<KernelId>(function)).kind ==
         bitstream::FunctionKind::kNetlist;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Results of probed calls land here, so the compiler cannot drop them.
volatile std::uint64_t g_sink = 0;

/// Sum of one counter over every card's registry snapshot.
std::uint64_t card_counter(core::CoprocessorFleet& fleet,
                           const std::string& name) {
  std::uint64_t total = 0;
  for (unsigned c = 0; c < fleet.card_count(); ++c)
    for (const telemetry::MetricSample& m : fleet.card(c).registry().snapshot())
      if (m.name == name) total += m.value;
  return total;
}

/// Host ns per event of a standalone scheduler held at `depth` live events:
/// every event schedules one successor, so the heap stays at `depth` until
/// the event budget runs out (the hold model).
double scheduler_ns_per_event(std::size_t depth, std::uint64_t seed) {
  sim::Scheduler scheduler;
  Prng rng(seed);
  std::size_t left = std::max<std::size_t>(200000, 4 * depth);
  const std::uint64_t span = 2 * 100000 * std::max<std::size_t>(depth, 1);
  struct Hop {
    sim::Scheduler* scheduler;
    Prng* rng;
    std::size_t* left;
    std::uint64_t span;
    void operator()() const {
      if (*left == 0) return;
      --*left;
      scheduler->schedule_after(
          sim::SimTime::ps(static_cast<std::int64_t>(rng->next_below(span))),
          *this);
    }
  };
  for (std::size_t i = 0; i < std::max<std::size_t>(depth, 1); ++i)
    scheduler.schedule_at(
        sim::SimTime::ps(static_cast<std::int64_t>(rng.next_below(span))),
        Hop{&scheduler, &rng, &left, span});
  const auto start = Clock::now();
  const std::size_t events = scheduler.run();
  return seconds_since(start) * 1e9 / static_cast<double>(events);
}

}  // namespace

LayerReport measure_layers(const Workload& w, std::uint64_t seed,
                           double seconds) {
  LayerReport out;
  out.correct = true;
  const std::uint64_t sub0 = subtrace_seed(seed, 0);
  const auto began = Clock::now();

  // --- untraced vs traced repetitions of sub-trace 0, alternating ----------
  // Pairs continue until half of --seconds is spent, up to kMaxPairs.
  constexpr int kMaxPairs = 5;
  std::vector<double> untraced_s, traced_s;
  std::unique_ptr<Rep> base;  // the first untraced rep, read below
  DriveResult base_drive;
  Outcome base_outcome;
  sim::SimTime bus_before;
  double exec_us_mean = 0.0;
  for (int i = 0;; ++i) {
    {
      auto rep = provision(w, sub0);
      sim::SimTime bus;
      for (unsigned c = 0; c < rep->fleet->card_count(); ++c)
        bus += rep->fleet->card(c).stats().bus.bus_time;
      const DriveResult d = drive(*rep);
      untraced_s.push_back(d.host_s);
      const Outcome o = analyse(w, *rep, /*check_outputs=*/i == 0);
      out.attempted += o.attempted;
      out.failed += o.failed;
      if (i == 0) {
        base = std::move(rep);
        base_drive = d;
        base_outcome = o;
        bus_before = bus;
        out.correct = o.wrong == 0 && o.checked > 0;
      } else if (o.digest != base_outcome.digest) {
        out.correct = false;
      }
    }
    {
      auto rep = provision(w, sub0);
      telemetry::TraceSink sink;
      rep->fleet->attach_trace(sink, w.name);
      const DriveResult d = drive(*rep);
      traced_s.push_back(d.host_s);
      const Outcome o = analyse(w, *rep, /*check_outputs=*/false);
      out.attempted += o.attempted;
      out.failed += o.failed;
      // Tracing must not perturb the simulation.
      if (o.digest != base_outcome.digest) out.correct = false;
      if (i == 0) {
        double total = 0.0;
        std::size_t spans = 0;
        for (const telemetry::TraceEvent& e : sink.merged())
          if (e.is_span() && std::string_view(e.category) == "fabric") {
            total += static_cast<double>(e.dur_ps) * 1e-6;
            ++spans;
          }
        exec_us_mean = spans ? total / static_cast<double>(spans) : 0.0;
      }
    }
    if (i + 1 >= kMaxPairs || seconds_since(began) > 0.5 * seconds) break;
  }
  const double host_s = median(untraced_s);
  core::CoprocessorFleet& fleet = *base->fleet;
  const core::FleetStats st = fleet.stats();
  const double completed = static_cast<double>(std::max<std::uint64_t>(
      st.completed, 1));

  // Loads per function in the base run, and their simulated cost.
  std::map<std::uint32_t, std::uint64_t> loads;
  sim::SimTime reconfig;
  double misses = 0.0;
  for (unsigned c = 0; c < fleet.card_count(); ++c)
    for (const core::ServerRequest& r : fleet.server(c).completed())
      if (!r.failed && !r.load.hit) {
        ++loads[r.function];
        reconfig += r.load.reconfig_time;
        ++misses;
      }
  sim::SimTime bus_after;
  for (unsigned c = 0; c < fleet.card_count(); ++c)
    bus_after += fleet.card(c).stats().bus.bus_time;

  // --- host probes ---------------------------------------------------------
  // Golden models on the workload's own payloads: what the behavioral
  // kernels cost inside the simulator.
  double software_s = 0.0;
  std::size_t software_calls = 0;
  std::set<std::uint32_t> bank;
  for (const workload::ClientTrace& ct : base->trace.clients)
    for (std::size_t i = 0; i < ct.requests.size(); ++i) {
      const std::uint32_t f = ct.requests[i].function;
      bank.insert(f);
      if (is_netlist(f)) continue;
      const Bytes& input = base->payloads->at(f, i);
      const auto& spec = algorithms::spec(static_cast<KernelId>(f));
      const auto start = Clock::now();
      const Bytes output = spec.software(input);
      software_s += seconds_since(start);
      g_sink = g_sink + output.size();
      ++software_calls;
    }

  // The configuration path per function, on a standalone card: CRC checks
  // of the stored stream and the decoded image, the codec decode alone, and
  // a full preload + evict round trip through the MCU (which includes both).
  core::AgileCoprocessor card;
  card.download_all();
  const std::size_t frame_bytes = card.fabric().geometry().frame_bytes();
  std::map<std::uint32_t, double> crc_s, decode_s, mcu_s;
  for (const std::uint32_t f : bank) {
    const memory::RomRecord record = *card.mcu().rom().lookup(f);
    const ByteSpan stored = card.mcu().rom().payload(record);
    const auto codec = compress::make_codec(record.codec, frame_bytes);
    const Bytes image = codec->decompress(stored);
    crc_s[f] = per_call_s([&] {
      g_sink = g_sink + Crc32::compute(stored) + Crc32::compute(image);
    });
    decode_s[f] = per_call_s([&] {
      g_sink = g_sink + compress::make_codec(record.codec, frame_bytes)
                            ->decompress(stored)
                            .size();
    });
    const auto kernel = static_cast<KernelId>(f);
    mcu_s[f] = per_call_s([&] {
      card.preload(kernel);
      card.evict(kernel);
    });
  }
  auto per_load = [&](const std::map<std::uint32_t, double>& cost,
                      double& total) {
    total = 0.0;
    double plain = 0.0;
    for (const auto& [f, s] : cost) {
      plain += s;
      const auto it = loads.find(f);
      if (it != loads.end()) total += s * static_cast<double>(it->second);
    }
    return misses > 0 ? total / misses
                      : plain / static_cast<double>(cost.size());
  };
  double crc_total = 0.0, decode_total = 0.0, mcu_total = 0.0;
  const double crc_per_load = per_load(crc_s, crc_total);
  const double decode_per_load = per_load(decode_s, decode_total);
  const double mcu_per_load = per_load(mcu_s, mcu_total);

  // A warm invoke of each resident netlist kernel of the catalog.
  std::vector<double> netlist_s;
  for (const algorithms::KernelSpec& spec : algorithms::catalog()) {
    if (spec.kind != bitstream::FunctionKind::kNetlist) continue;
    const Bytes input = spec.make_input(1, sub0);
    card.preload(spec.id);
    netlist_s.push_back(per_call_s(
        [&] { g_sink = g_sink + card.invoke(spec.id, input).output.size(); }));
    card.evict(spec.id);
  }

  // The event scheduler alone, at this workload's heap depth.
  const double ns_per_event = scheduler_ns_per_event(base_drive.heap_depth,
                                                     sub0);

  // Dispatch decisions and stats() on the finished (quiescent) fleet.
  const std::vector<std::uint32_t> functions(bank.begin(), bank.end());
  const double preview_s = per_call_s([&] {
    for (const std::uint32_t f : functions)
      g_sink = g_sink + fleet.preview_card(f);
  }, 0.05);
  const double dispatch_ns =
      preview_s * 1e9 / static_cast<double>(functions.size());
  std::vector<double> stats_s;
  for (int i = 0; i < 5; ++i) {
    const auto start = Clock::now();
    const core::FleetStats again = fleet.stats();
    stats_s.push_back(seconds_since(start));
    if (again.completed != st.completed) out.correct = false;
  }

  // Provisioning: building each bitstream, and storing it in a fresh ROM.
  std::vector<double> build_s, store_s;
  const fabric::FrameGeometry geometry = card.fabric().geometry();
  for (int round = 0; round < 3; ++round) {
    core::AgileCoprocessor fresh;
    for (const std::uint32_t f : functions) {
      const auto& spec = algorithms::spec(static_cast<KernelId>(f));
      auto start = Clock::now();
      const bitstream::Bitstream bs = spec.make_bitstream(geometry);
      build_s.push_back(seconds_since(start));
      start = Clock::now();
      fresh.mcu().store_function(f, bs);
      store_s.push_back(seconds_since(start));
    }
  }

  const double us = 1e6;
  out.metrics = {
      {"algorithms.host_us_per_call",
       software_calls ? software_s * us / static_cast<double>(software_calls)
                      : 0.0,
       "us"},
      {"algorithms.host_share", software_s / host_s, "ratio"},
      {"common.crc_host_us_per_load", crc_per_load * us, "us"},
      {"common.crc_host_share", crc_total / host_s, "ratio"},
      {"compress.decode_host_us_per_load", decode_per_load * us, "us"},
      {"compress.decode_host_share", decode_total / host_s, "ratio"},
      {"mcu.host_us_per_load", mcu_per_load * us, "us"},
      {"mcu.load_host_share", mcu_total / host_s, "ratio"},
      {"netlist.host_us_per_invoke", mean(netlist_s) * us, "us"},
      {"sim.host_ns_per_event", ns_per_event, "ns"},
      {"sim.heap_depth", static_cast<double>(base_drive.heap_depth), "count"},
      {"core.dispatch_host_ns", dispatch_ns, "ns"},
      {"core.stats_host_ms", median(stats_s) * 1e3, "ms"},
      {"bitstream.host_ms_per_function", mean(build_s) * 1e3, "ms"},
      {"mcu.store_host_ms_per_function", mean(store_s) * 1e3, "ms"},
      {"telemetry.trace_overhead_ratio", median(traced_s) / host_s, "ratio"},
      {"sim.events_per_request",
       static_cast<double>(base_drive.events) / completed, "events/req"},
      {"pci.bus_wait_us_mean", st.total_bus_wait.microseconds() / completed,
       "us"},
      {"pci.busy_ratio",
       (bus_after - bus_before).seconds() /
           (static_cast<double>(fleet.card_count()) * st.makespan.seconds()),
       "ratio"},
      {"mcu.hit_ratio", st.hit_rate, "ratio"},
      {"mcu.reconfig_us_per_miss",
       misses > 0 ? reconfig.microseconds() / misses : 0.0, "us"},
      {"mcu.bytes_streamed_per_miss",
       misses > 0 ? static_cast<double>(card_counter(
                        fleet, "mcu.compressed_bytes_streamed")) /
                        misses
                  : 0.0,
       "B"},
      {"mcu.frames_skipped_delta",
       static_cast<double>(card_counter(fleet, "mcu.frames_skipped_delta")),
       "count"},
      {"core.engine_wait_us_mean",
       st.total_engine_wait.microseconds() / completed, "us"},
      {"core.fabric_wait_us_mean",
       st.total_fabric_wait.microseconds() / completed, "us"},
      {"core.hidden_reconfig_ratio",
       reconfig.picoseconds() > 0
           ? st.total_hidden_reconfig.seconds() / reconfig.seconds()
           : 0.0,
       "ratio"},
      {"core.affinity_routed_ratio",
       static_cast<double>(st.affinity_routed) /
           static_cast<double>(std::max<std::uint64_t>(st.submitted, 1)),
       "ratio"},
      {"fabric.exec_us_mean", exec_us_mean, "us"},
  };
  return out;
}

}  // namespace perfbench
