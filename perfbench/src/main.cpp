// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics of one workload; --trace 1 runs
// the traced per-layer measurement instead (layers.h).  The last line of
// standard output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}.  Diagnostics go to standard error.
//
// End-to-end run: one untimed warm-up repetition, then timed repetitions
// over the workload's sub-traces until --seconds of replay + run host time
// have been spent.  Host metrics are medians over repetitions; simulated
// metrics come from the first pass over the sub-traces and must repeat
// exactly, which the outcome digest of every repetition checks.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "layers.h"
#include "timing.h"
#include "workloads.h"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
      have[1] = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
      have[2] = *end == '\0' && a.seconds > 0.0 && a.seconds <= 600.0;
    } else if (flag == "--trace") {
      have[3] = value == "0" || value == "1";
      a.trace = value == "1" ? 1 : 0;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3]))
    usage("every flag is required, with a valid value");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void print_result(bool correct, std::uint64_t attempted,
                  std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  std::printf("}}\n");
  std::fflush(stdout);
}

/// Set-up is sampled at least this often (extra provisionings that run no
/// traffic top up the count) and reported as the median.
constexpr std::size_t kSetupSamples = 25;

int run_end_to_end(const Workload& w, const Args& args) {
  std::vector<double> setup_samples;
  std::vector<double> rps_samples;
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  auto tally = [&](const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (o.wrong) correct = false;
  };

  // Warm-up on sub-trace 0: fills the allocator and caches, untimed.
  std::uint64_t warm_digest = 0;
  {
    auto warm = provision(w, subtrace_seed(args.seed, 0));
    setup_samples.push_back(warm->setup_s);
    drive(*warm);
    const Outcome o = analyse(w, *warm, /*check_outputs=*/false);
    tally(o);
    warm_digest = o.digest;
  }

  // Timed repetitions cycle through the sub-traces until --seconds of host
  // time is spent, and cover each sub-trace at least once.  The first pass
  // is checked against the golden models and gives the simulated metrics;
  // later passes must reproduce its digests exactly.  Latency percentiles
  // are taken per sub-trace and reported as the median over sub-traces:
  // each sub-trace places kernels on cards afresh, and a rare placement
  // that overloads one card would otherwise decide the pooled tail.
  const unsigned k_total = w.subtraces;
  std::vector<std::uint64_t> digests(k_total);
  std::vector<double> p50s, p99s;
  std::uint64_t pooled = 0, completed = 0, verified = 0, measured = 0,
                slo_met = 0, checked = 0;
  double makespan_s = 0.0;
  double timed = 0.0;
  for (std::size_t r = 0; r < k_total || timed < args.seconds; ++r) {
    const unsigned k = static_cast<unsigned>(r % k_total);
    const bool first = r < k_total;
    auto rep = provision(w, subtrace_seed(args.seed, k));
    setup_samples.push_back(rep->setup_s);
    const DriveResult d = drive(*rep);
    const Outcome o = analyse(w, *rep, /*check_outputs=*/first);
    tally(o);
    timed += d.host_s;
    rps_samples.push_back(static_cast<double>(o.completed) / d.host_s);
    if (first) {
      digests[k] = o.digest;
      const aad::core::LatencySummary lat =
          aad::core::summarize_latencies(o.latencies);
      p50s.push_back(lat.p50.microseconds());
      p99s.push_back(lat.p99.microseconds());
      pooled += o.attempted;
      completed += o.completed;
      verified += o.verified;
      measured += o.measured;
      slo_met += o.slo_met;
      checked += o.checked;
      makespan_s += o.makespan.seconds();
    } else if (o.digest != digests[k]) {
      std::fprintf(stderr, "sub-trace %u diverged on repetition %zu\n", k,
                   r);
      correct = false;
    }
  }
  if (warm_digest != digests[0]) {
    std::fprintf(stderr, "the warm-up diverged from sub-trace 0\n");
    correct = false;
  }
  if (checked == 0) correct = false;
  while (setup_samples.size() < kSetupSamples)
    setup_samples.push_back(provision(w, subtrace_seed(args.seed, 0))->setup_s);

  std::fprintf(stderr,
               "%s seed=%llu: %zu timed reps, %.2f s timed; %llu pooled "
               "requests, %llu outputs checked, %llu failed\n",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               rps_samples.size(), timed,
               static_cast<unsigned long long>(pooled),
               static_cast<unsigned long long>(checked),
               static_cast<unsigned long long>(failed));

  const double n = static_cast<double>(pooled);
  print_result(correct, attempted, failed,
               {{"setup_s", median(setup_samples), "s"},
                {"host_rps", median(rps_samples), "1/s"},
                {"host_peak_rss_mb", peak_rss_mb(), "MB"},
                {"sim_rps", static_cast<double>(completed) / makespan_s,
                 "1/s"},
                {"sim_p50_us", median(p50s), "us"},
                {"sim_p99_us", median(p99s), "us"},
                {"sim_slo_met_ratio",
                 static_cast<double>(slo_met) / static_cast<double>(measured),
                 "ratio"},
                {"sim_success_ratio", static_cast<double>(verified) / n,
                 "ratio"}});
  return 0;
}

int run_layers(const Workload& w, const Args& args) {
  const LayerReport r = measure_layers(w, args.seed, args.seconds);
  print_result(r.correct, r.attempted, r.failed, r.metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  try {
    const Workload& w = find_workload(args.workload);
    return args.trace ? run_layers(w, args) : run_end_to_end(w, args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
