// optchain_perfbench — runs one benchmark workload for a fixed time and
// prints its metrics; perfbench/README.md describes workloads and metrics.
//
//   optchain_perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace=0|1]
//                      [--scratch=DIR] [--spans_out=PATH]
//
// --seed fixes kStreams generated streams. Repetitions (set-up + entry call)
// cycle through them until --seconds have passed and every stream ran at
// least once; timings are medians over the repetitions and quality metrics
// are pooled over the streams. --trace=0 prints the end-to-end metrics;
// --trace=1 alternates untraced and traced repetitions, prints the per-layer
// metrics and writes spans of the last traced repetition to --spans_out. The
// last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is 0 only when every correctness check passed.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/flags.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Streams per seed. Averaging over several streams keeps one seed's stream
/// structure from setting the run's figures.
constexpr std::size_t kStreams = 8;

/// A run stops adding repetitions past this, whatever --seconds says, so it
/// ends well inside the 180 s a run may take.
constexpr double kMaxRunSeconds = 120.0;

/// Spans written out: those of the first transactions of the last traced
/// repetition (the whole log of a placement repetition is ~90 MB of CSV).
constexpr std::uint32_t kSpansWritten = 20'000;

/// host_probe_s() on the host the reference figures were taken on (4-vCPU
/// x86-64 VM, Xeon, 105 MiB shared L3) in its fast phases. tx_per_s and
/// setup_s are scaled to that host's speed.
constexpr double kReferenceProbeS = 0.065;

/// Keeps the probe's result observable, so its work cannot be elided.
volatile std::uint64_t probe_sink = 0;

/// Times a fixed reference task owned by the benchmark: fresh pages, random
/// reads and writes over 32 MiB, and many small allocations in a hash map.
/// That is the access pattern of stream generation, the TaN dag, the score
/// pool and the simulator's ledgers. On a shared host, wall times switch
/// between fast and slow phases lasting seconds, up to 1.8x apart, and this
/// task's time follows them; each repetition is scaled by the probe taken
/// just before it.
double host_probe_s() {
  const auto start = Clock::now();
  std::uint64_t state = 0x5eed;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  std::vector<std::uint64_t> table(std::size_t{1} << 22);
  std::uint64_t sum = 0;
  for (int i = 0; i < 1'000'000; ++i) {
    sum += table[next() & (table.size() - 1)]++;
  }
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> map;
  for (std::uint32_t i = 0; i < 100'000; ++i) map[next()].assign(1 + i % 4, i);
  for (const auto& [key, value] : map) sum += key ^ value.size();
  probe_sink = sum;
  return seconds_since(start);
}

std::uint64_t stream_seed(std::uint64_t seed, std::size_t stream) {
  return seed * kStreams + stream;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Peak resident set size of this process in MiB (Linux reports KiB).
double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void print_metric(const Metric& metric) {
  std::printf("  %-26s %.6g %s\n", metric.name.c_str(), metric.value,
              metric.unit.c_str());
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string json = "{";
  char value[64];
  for (const Metric& metric : metrics) {
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(metric.value) ? metric.value : 0.0);
    if (json.size() > 1) json += ", ";
    json += "\"" + metric.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
  }
  return json + "}";
}

int run(int argc, char** argv) {
  const optchain::Flags flags(argc, argv);
  const std::string name = flags.get_string("workload", "");
  const WorkloadSpec* spec = find_workload(name);
  if (spec == nullptr) {
    std::fprintf(stderr, "optchain_perfbench: unknown --workload '%s'; one of",
                 name.c_str());
    for (const WorkloadSpec& known : workloads()) {
      std::fprintf(stderr, " %s", known.name.c_str());
    }
    std::fputc('\n', stderr);
    return 2;
  }
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double seconds = flags.get_double("seconds", 10.0);
  const bool trace = flags.get_int("trace", 0) != 0;
  RepetitionOptions options;
  options.scratch_dir = flags.get_string("scratch", ".");
  const std::string spans_out = flags.get_string("spans_out", "");

  // ---- repetitions: untraced only, or untraced and traced alternating.
  // Repetition i of each kind runs stream i % kStreams.
  // Untraced timings are also kept scaled to the reference host's speed by
  // the probe taken just before the repetition.
  std::vector<Repetition> untraced;
  std::vector<Repetition> traced;
  std::vector<double> probe_s;
  std::vector<double> scaled_setup_s;
  std::vector<double> scaled_tx_per_s;
  const auto start = Clock::now();
  for (std::size_t i = 0;; ++i) {
    probe_s.push_back(host_probe_s());
    options.traced = trace && i % 2 == 1;
    std::vector<Repetition>& group = options.traced ? traced : untraced;
    Repetition rep = run_repetition(
        *spec, stream_seed(seed, group.size() % kStreams), options);
    if (!options.traced) {
      const double speed = kReferenceProbeS / probe_s.back();
      scaled_setup_s.push_back(rep.setup_s * speed);
      scaled_tx_per_s.push_back(static_cast<double>(spec->txs) / rep.run_s /
                                speed);
    }
    // Only the last traced repetition's spans are written out; release the
    // previous one's (a placement repetition logs ~64 MB of spans).
    if (options.traced && !traced.empty()) {
      std::vector<Span>().swap(traced.back().spans);
    }
    group.push_back(std::move(rep));
    const double elapsed = seconds_since(start);
    const bool enough = untraced.size() >= kStreams &&
                        (!trace || traced.size() >= kStreams);
    if ((enough && elapsed >= seconds) || elapsed >= kMaxRunSeconds) break;
  }

  // ---- correctness: every repetition's own checks, then determinism (a
  // stream's untraced repetitions agree) and wrapper transparency (its
  // traced repetitions agree with the untraced one).
  std::vector<std::string> errors;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const auto* group : {&untraced, &traced}) {
    for (std::size_t i = 0; i < group->size(); ++i) {
      const Repetition& rep = (*group)[i];
      attempted += spec->txs;
      failed += rep.failed;
      errors.insert(errors.end(), rep.errors.begin(), rep.errors.end());
      if (!(rep.outcome == untraced[i % kStreams].outcome)) {
        errors.push_back(group == &untraced
                             ? "repetitions of one stream disagree"
                             : "traced outcome differs from the untraced one");
      }
    }
  }
  if (untraced.size() < kStreams) {
    errors.push_back("the run ended before every stream ran");
  }
  if (!errors.empty()) failed = attempted;
  std::sort(errors.begin(), errors.end());
  errors.erase(std::unique(errors.begin(), errors.end()), errors.end());
  for (const std::string& error : errors) {
    std::fprintf(stderr, "optchain_perfbench: check failed: %s\n",
                 error.c_str());
  }

  // ---- end-to-end metrics: timings are medians over the untraced
  // repetitions, scaled to the reference host's speed; quality is pooled
  // over the streams, and the sim-time figures are averaged over them.
  std::vector<double> setup_s;
  std::vector<double> run_s;
  for (const Repetition& rep : untraced) {
    setup_s.push_back(rep.setup_s);
    run_s.push_back(rep.run_s);
  }
  std::uint64_t counted = 0;
  std::uint64_t cross = 0;
  double confirm_p50_s = 0.0;
  double confirm_p999_s = 0.0;
  double throughput_tps = 0.0;
  const std::size_t streams = std::min(kStreams, untraced.size());
  const auto share = 1.0 / static_cast<double>(streams);
  for (std::size_t stream = 0; stream < streams; ++stream) {
    const Outcome& outcome = untraced[stream].outcome;
    counted += outcome.counted;
    cross += outcome.cross;
    confirm_p50_s += share * outcome.confirm_p50_s;
    confirm_p999_s += share * outcome.confirm_p999_s;
    throughput_tps += share * outcome.throughput_tps;
  }
  std::printf("workload %s  seed %llu  %zu streams of %llu transactions  "
              "%zu untraced + %zu traced repetitions\n",
              spec->name.c_str(), static_cast<unsigned long long>(seed),
              streams, static_cast<unsigned long long>(spec->txs),
              untraced.size(), traced.size());

  const double host_speed = kReferenceProbeS / median(probe_s);
  std::printf("host speed %.3f of the reference (probe median %.4f s); "
              "wall-clock tx_per_s %.6g tx/s, setup_s %.6g s\n",
              host_speed, median(probe_s),
              static_cast<double>(spec->txs) / median(run_s), median(setup_s));
  const std::vector<Metric> end_to_end = {
      {"tx_per_s", "tx/s", median(scaled_tx_per_s)},
      {"setup_s", "s", median(scaled_setup_s)},
      {"peak_rss_mib", "MiB", peak_rss_mib()},
      {"cross_fraction", "fraction",
       counted == 0 ? 0.0
                    : static_cast<double>(cross) / static_cast<double>(counted)},
  };
  // Sim-time outcomes: zero on placement, so they are reported with the
  // per-layer metrics rather than gated.
  const std::vector<Metric> sim_time = {
      {"confirm_p50_s", "s", confirm_p50_s},
      {"confirm_p999_s", "s", confirm_p999_s},
      {"sim_throughput_tps", "tx/s", throughput_tps},
  };
  std::printf("end-to-end (untraced, at the reference host's speed):\n");
  for (const Metric& metric : end_to_end) print_metric(metric);
  print_metric({"failed_frac", "fraction",
                static_cast<double>(failed) / static_cast<double>(attempted)});
  for (const Metric& metric : sim_time) print_metric(metric);

  // ---- per-layer metrics: medians over the traced repetitions.
  std::vector<Metric> layers;
  if (trace && !traced.empty()) {
    std::map<std::string, std::vector<double>> samples;
    for (const Repetition& rep : traced) {
      for (const Metric& metric : rep.layers) {
        samples[metric.name].push_back(metric.value);
      }
    }
    for (const Metric& metric : traced.front().layers) {
      layers.push_back({metric.name, metric.unit, median(samples[metric.name])});
    }
    std::vector<double> traced_run_s;
    for (const Repetition& rep : traced) traced_run_s.push_back(rep.run_s);
    layers.push_back({"bench.trace_overhead_frac", "fraction",
                      1.0 - median(run_s) / median(traced_run_s)});
    layers.push_back({"bench.host_speed", "ratio", host_speed});
    std::printf("per-layer (traced):\n");
    for (const Metric& metric : layers) print_metric(metric);
    layers.insert(layers.end(), sim_time.begin(), sim_time.end());
    if (!spans_out.empty() &&
        !write_spans_csv(spans_out, traced.back().spans, kSpansWritten)) {
      std::fprintf(stderr, "optchain_perfbench: cannot write %s\n",
                   spans_out.c_str());
    }
  }

  const bool correct = errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(trace ? layers : end_to_end).c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "optchain_perfbench: %s\n", error.what());
    return 2;
  }
}
