#include "workloads.h"

#include <algorithm>
#include <stdexcept>

#include "algorithms/kernels.h"
#include "timing.h"
#include "workload/replay.h"

namespace perfbench {

namespace {

using namespace aad;
using algorithms::KernelId;
using algorithms::function_id;

/// Every catalog kernel but modexp: the 17 kernels whose golden models cost
/// microseconds, so the config path or the event engine dominates.
std::vector<std::uint32_t> cheap_bank() {
  std::vector<std::uint32_t> bank = algorithms::function_bank();
  std::erase(bank, function_id(KernelId::kModExp));
  return bank;
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> all;

  // Open-loop RSA offload on a 2-card residency-affinity fleet.  Eight
  // clients, two per kernel, send bursts of four same-kernel requests (a
  // handshake storm): exactly a quarter 256-bit modexp, the rest SHA-256,
  // SHA-1 and AES-128.  The four kernels fill a card's 48 frames exactly,
  // so configurations stay resident and host time is the bignum golden
  // model.  Most requests queue briefly behind their burst-mates, so the
  // median is a queued latency that moves with the seed.  The long gaps
  // between bursts make collisions between modexp bursts rare, so p99 is
  // the last request of an uncontended modexp burst rather than a count of
  // rare collisions.  Limit: a 4-modexp burst alone on a card takes about
  // 400 us.
  all.push_back({"tls_handshake", 2,
                 [](std::uint64_t seed) {
                   const KernelId kernels[] = {
                       KernelId::kModExp, KernelId::kSha256, KernelId::kSha1,
                       KernelId::kAes128};
                   workload::MultiClientTrace trace;
                   trace.mode = workload::ArrivalMode::kOpenLoop;
                   for (unsigned c = 0; c < 8; ++c) {
                     workload::BurstyConfig b;
                     b.clients = 1;
                     b.bursts = 32;  // 1024 requests per sub-trace
                     b.burst_size = 4;
                     b.functions = {function_id(kernels[c % 4])};
                     b.seed = seed * 8 + c;
                     b.mean_intra_gap = sim::SimTime::us(5);
                     b.mean_inter_gap = sim::SimTime::us(12800);
                     workload::ClientTrace ct =
                         workload::make_bursty(b).clients.front();
                     ct.client = c;
                     trace.clients.push_back(std::move(ct));
                   }
                   return trace;
                 },
                 sim::SimTime::us(500), 12});

  // Closed loop, zero think time: four clients on one card drawing
  // uniformly over the 17 kernels other than modexp.  Their footprint
  // exceeds the fabric, so about 60% of requests reconfigure and host time
  // is the configuration path (ROM CRC checks and codec decode).  Limit:
  // four queued requests that each reconfigure fit in about 1 ms.
  all.push_back({"reconfig_churn", 1,
                 [](std::uint64_t seed) {
                   workload::MultiClientConfig c;
                   c.clients = 4;
                   c.requests_per_client = 5000;
                   c.functions = cheap_bank();
                   c.seed = seed;
                   c.mode = workload::ArrivalMode::kClosedLoop;
                   return workload::make_multi_client(c);
                 },
                 sim::SimTime::us(1000), 4});

  // Open loop, zipf(1.1) over the same 17 kernels on 8 cards, offered at
  // 80% of the closed-loop saturation of about 505k simulated req/s
  // (8 clients x one request per 19.8 us).  Configurations stay resident,
  // so host time is the event engine, dispatch and netlist evaluation, with
  // every arrival pre-scheduled in a deep heap.  At 75% and below more
  // than half the requests never queue, and the median pins to one
  // kernel's unloaded latency for most seeds.  Each sub-trace starts with
  // a fresh placement of kernels on cards; an unlucky one (two hot kernels
  // on one card) overloads that card, which shows in sim_slo_met_ratio
  // while the percentiles, medians over 16 short sub-traces, stay put.
  // Limit: ten times the ~9 us unloaded latency.
  all.push_back({"agile_mix", 8,
                 [](std::uint64_t seed) {
                   workload::MultiClientConfig c;
                   c.clients = 8;
                   c.requests_per_client = 2500;
                   c.functions = cheap_bank();
                   c.seed = seed;
                   c.zipf_s = 1.1;
                   c.mode = workload::ArrivalMode::kOpenLoop;
                   c.mean_interarrival = sim::SimTime::us(19.8);
                   return workload::make_multi_client(c);
                 },
                 sim::SimTime::us(100), 16});
  return all;
}

/// splitmix64 finalizer: payload seeds from (run seed, function, index).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xFF;
    h *= 1099511628211ull;
  }
}

}  // namespace

std::uint64_t subtrace_seed(std::uint64_t seed, unsigned k) {
  return mix(mix(seed) + k);
}

const Workload& find_workload(const std::string& name) {
  static const std::vector<Workload> all = make_workloads();
  for (const Workload& w : all)
    if (w.name == name) return w;
  throw std::invalid_argument("unknown workload: " + name);
}

PayloadTable::PayloadTable(const workload::MultiClientTrace& trace,
                           std::uint64_t seed) {
  for (const workload::ClientTrace& ct : trace.clients) {
    for (std::size_t i = 0; i < ct.requests.size(); ++i) {
      const workload::ClientRequest& r = ct.requests[i];
      if (r.function >= slot_.size()) slot_.resize(r.function + 1, -1);
      if (slot_[r.function] < 0) {
        slot_[r.function] = static_cast<int>(rows_.size());
        rows_.emplace_back();
      }
      auto& row = rows_[static_cast<std::size_t>(slot_[r.function])];
      if (row.size() <= i) row.resize(i + 1);
      if (row[i].empty())
        row[i] = algorithms::bank_input(
            r.function, r.payload_blocks,
            mix(seed ^ mix((std::uint64_t{r.function} << 32) | i)));
    }
  }
}

std::unique_ptr<Rep> provision(const Workload& w, std::uint64_t seed) {
  const auto start = Clock::now();
  auto rep = std::make_unique<Rep>();
  core::FleetConfig fc;
  fc.cards = w.cards;
  fc.policy = core::DispatchPolicy::kResidencyAffinity;
  fc.threads = 1;
  rep->fleet = std::make_unique<core::CoprocessorFleet>(fc);
  rep->fleet->download_all();
  rep->trace = w.traffic(seed);
  rep->payloads = std::make_unique<PayloadTable>(rep->trace, seed);
  rep->setup_s = seconds_since(start);
  return rep;
}

DriveResult drive(Rep& rep) {
  DriveResult r;
  rep.start = rep.fleet->now();
  const auto start = Clock::now();
  // Closed-loop replay keeps copies of this callable in completion hooks;
  // the table it points at lives in the rep, which outlives the run.
  workload::replay(*rep.fleet, rep.trace,
                   [table = rep.payloads.get()](std::uint32_t function,
                                                std::size_t,
                                                std::size_t index) {
                     return table->at(function, index);
                   });
  r.heap_depth = rep.fleet->sim_pending();
  r.events = rep.fleet->run();
  r.host_s = seconds_since(start);
  return r;
}

bool output_checked(std::uint32_t function, std::size_t index) {
  return function != function_id(KernelId::kModExp) || index % 8 == 0;
}

Outcome analyse(const Workload& w, const Rep& rep, bool check_outputs) {
  Outcome o;
  o.attempted = rep.trace.total_requests();
  const sim::SimTime measured_from = rep.start + kWarmup;

  // Each client's records in submission order.  Open-loop offsets are
  // strictly increasing per client and a closed-loop client has one request
  // outstanding, so submit time orders them; the trace's function sequence
  // then confirms the pairing.
  std::vector<std::vector<const core::ServerRequest*>> by_client(
      rep.trace.clients.size());
  for (unsigned c = 0; c < rep.fleet->card_count(); ++c)
    for (const core::ServerRequest& r : rep.fleet->server(c).completed())
      if (r.client < by_client.size()) by_client[r.client].push_back(&r);

  std::uint64_t digest = 1469598103934665603ull;
  for (std::size_t c = 0; c < by_client.size(); ++c) {
    auto& records = by_client[c];
    std::stable_sort(records.begin(), records.end(),
                     [](const auto* a, const auto* b) {
                       return a->submit_time < b->submit_time;
                     });
    const auto& wanted = rep.trace.clients[c].requests;
    for (std::size_t i = 0; i < wanted.size(); ++i) {
      if (i >= records.size()) {  // never came back: failed, and measured
        o.measured += wanted.size() - i;
        break;
      }
      const core::ServerRequest& r = *records[i];
      const bool measured = r.submit_time >= measured_from;
      if (measured) ++o.measured;
      fnv(digest, r.client);
      fnv(digest, r.function);
      fnv(digest, static_cast<std::uint64_t>(r.submit_time.picoseconds()));
      fnv(digest, static_cast<std::uint64_t>(r.complete_time.picoseconds()));
      for (const Byte b : r.output) {
        digest ^= b;
        digest *= 1099511628211ull;
      }
      if (r.function != wanted[i].function) {
        ++o.wrong;
        continue;
      }
      if (r.failed) continue;
      ++o.completed;
      if (measured) o.latencies.push_back(r.latency());
      if (check_outputs && output_checked(r.function, i)) {
        ++o.checked;
        const Bytes& input = rep.payloads->at(r.function, i);
        const auto& spec =
            algorithms::spec(static_cast<KernelId>(r.function));
        if (spec.software(input) != r.output) {
          ++o.wrong;
          continue;
        }
      }
      ++o.verified;
      if (measured && r.latency() <= w.slo) ++o.slo_met;
    }
    // A record the trace never asked for is wrong too.
    if (records.size() > wanted.size())
      o.wrong += records.size() - wanted.size();
  }
  o.failed = o.attempted - o.verified;
  o.digest = digest;

  o.makespan = rep.fleet->stats().makespan;
  return o;
}

}  // namespace perfbench
