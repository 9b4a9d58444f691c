#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>
#include <utility>

#include "api/placer_registry.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_source.hpp"
#include "trace/trace_writer.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {
namespace {

namespace api = optchain::api;
namespace placement = optchain::placement;
namespace sim = optchain::sim;
namespace tx = optchain::tx;
namespace workload = optchain::workload;

/// Expects `actual == expected`, else records `what` in `errors`.
void expect_equal(std::uint64_t actual, std::uint64_t expected,
                  const std::string& what, std::vector<std::string>& errors) {
  if (actual != expected) {
    errors.push_back(what + ": " + std::to_string(actual) + " != " +
                     std::to_string(expected));
  }
}

/// Placements into a shard that is not active.
std::uint64_t inactive_placements(
    const placement::ShardAssignment& assignment) {
  std::uint64_t inactive = 0;
  for (tx::TxIndex index = 0; index < assignment.total(); ++index) {
    if (!assignment.is_active(assignment.shard_of(index))) ++inactive;
  }
  return inactive;
}

/// Streams the generated stream into an OPTX file without materializing it.
void write_trace(const std::string& path, workload::TxSource& source) {
  optchain::trace::TraceWriter writer(path);
  tx::Transaction transaction;
  while (source.next(transaction)) writer.append(transaction);
  writer.finish();
}

/// The pipeline over PlacerRegistry's strategy, wrapped in a TracingPlacer
/// when `log` is given; pre-sized for the stream like api::make_pipeline.
api::PlacementPipeline build_pipeline(const WorkloadSpec& spec,
                                      std::uint64_t seed, SpanLog* log,
                                      PlacerTally* tally,
                                      std::uint64_t spin_ns) {
  api::PlacementPipeline pipeline(
      kShards,
      [&](const optchain::graph::TanDag& dag)
          -> std::unique_ptr<placement::Placer> {
        const api::PlacerContext context{dag, kShards, seed, {}, {},
                                         spec.txs};
        auto placer = api::PlacerRegistry::instance().make(spec.method,
                                                           context);
        if (log == nullptr) return placer;
        return std::make_unique<TracingPlacer>(std::move(placer), *log, *tally,
                                               spec.runs_l2s, spin_ns);
      });
  pipeline.reserve(spec.txs);
  return pipeline;
}

sim::SimConfig sim_config(const WorkloadSpec& spec, std::uint64_t seed,
                          sim::SimObserver& observer) {
  sim::SimConfig config;
  config.num_shards = kShards;
  config.tx_rate_tps = spec.rate_tps;
  config.seed = seed;
  config.commit_window_s = 10.0;
  config.fabric = sim::fabric_preset(spec.fabric);
  config.observers = {&observer};
  return config;
}

/// Nearest-rank quantile of `values` (reorders them).
double quantile(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(values.size()));
  const auto index = std::min(rank, values.size() - 1);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return static_cast<double>(values[index]);
}

/// Per-layer metrics of one traced repetition. A span's self time is its
/// duration minus that of its children.
std::vector<Metric> layer_metrics(const WorkloadSpec& spec,
                                  const std::vector<Span>& spans,
                                  const PlacerTally& tally,
                                  const CountingObserver& observer,
                                  const Outcome& outcome,
                                  std::uint64_t chunks_loaded) {
  std::array<std::uint64_t, kSpanKinds> calls{};
  std::array<std::int64_t, kSpanKinds> busy_ns{};
  std::array<std::int64_t, kSpanKinds> self_ns{};
  std::vector<std::int64_t> child_ns(spans.size(), 0);
  std::vector<std::int64_t> choose_ns;
  choose_ns.reserve(spans.size() / 3 + 1);
  for (const Span& span : spans) {
    const std::int64_t duration = span.end_ns - span.start_ns;
    const auto kind = static_cast<std::size_t>(span.kind);
    ++calls[kind];
    busy_ns[kind] += duration;
    if (span.parent != Span::kNoParent) child_ns[span.parent] += duration;
    if (span.kind == SpanKind::kChoose) choose_ns.push_back(duration);
  }
  for (std::size_t id = 0; id < spans.size(); ++id) {
    self_ns[static_cast<std::size_t>(spans[id].kind)] +=
        spans[id].end_ns - spans[id].start_ns - child_ns[id];
  }
  const auto of = [](const auto& array, SpanKind kind) {
    return static_cast<double>(array[static_cast<std::size_t>(kind)]);
  };
  const auto seconds = [&](const auto& array, SpanKind kind) {
    return 1e-9 * of(array, kind);
  };
  const auto mean = [](double sum, double count) {
    return count == 0.0 ? 0.0 : sum / count;
  };

  // Only a placement workload reads through the trace layer; a simulation's
  // source is the materialized stream.
  const bool reads_trace = !spec.simulates();
  const double choose_calls = of(calls, SpanKind::kChoose);
  const double l2s_calls = static_cast<double>(tally.l2s_calls);
  const double l2s_ns = replay_l2s_ns_per_call(tally.l2s_samples);
  const double run_s = seconds(busy_ns, SpanKind::kRun);
  double skew = 0.0;
  if (!outcome.shard_events.empty()) {
    double sum = 0.0;
    for (const std::uint64_t count : outcome.shard_events) {
      sum += static_cast<double>(count);
    }
    const double max = static_cast<double>(*std::max_element(
        outcome.shard_events.begin(), outcome.shard_events.end()));
    skew = mean(max, sum / static_cast<double>(outcome.shard_events.size()));
  }
  const auto events = static_cast<double>(outcome.events);

  return {
      {"trace.next_calls", "count",
       reads_trace ? of(calls, SpanKind::kNext) : 0.0},
      {"trace.next_busy_s", "s",
       reads_trace ? seconds(busy_ns, SpanKind::kNext) : 0.0},
      {"trace.chunks_loaded", "count", static_cast<double>(chunks_loaded)},
      {"pipeline.step_calls", "count", of(calls, SpanKind::kStep)},
      {"pipeline.step_self_s", "s", seconds(self_ns, SpanKind::kStep)},
      {"placer.choose_calls", "count", choose_calls},
      {"placer.choose_busy_s", "s", seconds(busy_ns, SpanKind::kChoose)},
      {"placer.choose_p50_ns", "ns", quantile(choose_ns, 0.5)},
      {"placer.choose_p99_ns", "ns", quantile(choose_ns, 0.99)},
      {"placer.notify_busy_s", "s", seconds(busy_ns, SpanKind::kNotify)},
      {"placer.input_shards_mean", "count",
       mean(static_cast<double>(tally.input_shards_sum), choose_calls)},
      {"l2s.calls", "count", l2s_calls},
      {"l2s.proof_set_mean", "count",
       mean(static_cast<double>(tally.proof_set_sum), l2s_calls)},
      {"l2s.proof_set_max", "count", static_cast<double>(tally.proof_set_max)},
      {"l2s.replay_ns_per_call", "ns", l2s_ns},
      {"l2s.est_busy_s", "s", 1e-9 * l2s_calls * l2s_ns},
      {"sim.run_busy_s", "s", run_s},
      {"sim.engine_self_s", "s", seconds(self_ns, SpanKind::kRun)},
      {"sim.events", "count", events},
      {"sim.events_per_s", "1/s", run_s == 0.0 ? 0.0 : events / run_s},
      {"sim.event_heap_peak", "count",
       static_cast<double>(outcome.event_heap_peak)},
      {"sim.shard_event_skew", "ratio", skew},
      {"consensus.blocks", "count", static_cast<double>(observer.blocks)},
      {"consensus.queue_len_max", "count",
       static_cast<double>(observer.queue_len_max)},
      {"fabric.messages", "count", static_cast<double>(outcome.link_messages)},
      {"fabric.bytes", "B", static_cast<double>(outcome.link_bytes)},
      {"fabric.drops", "count", static_cast<double>(outcome.link_drops)},
      {"fabric.queue_delay_s", "s", outcome.link_queue_delay_s},
  };
}

/// Recounts a placement independently of the pipeline: counted (non-coinbase)
/// transactions, those with an input outside their shard, and shard sizes,
/// from the assignment and the inputs `stream` yields.
api::StreamOutcome recount(workload::TxSource& stream,
                           const placement::ShardAssignment& assignment) {
  api::StreamOutcome outcome;
  outcome.shard_sizes.assign(assignment.k(), 0);
  tx::Transaction transaction;
  while (stream.next(transaction)) {
    if (transaction.index >= assignment.total()) break;
    const placement::ShardId shard = assignment.shard_of(transaction.index);
    ++outcome.shard_sizes[shard];
    if (transaction.is_coinbase()) continue;
    ++outcome.total;
    const bool cross = std::any_of(
        transaction.inputs.begin(), transaction.inputs.end(),
        [&](const tx::OutPoint& input) {
          return assignment.shard_of(input.tx) != shard;
        });
    if (cross) ++outcome.cross;
  }
  return outcome;
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // Sizes keep one timed entry call at 0.2-1 s on a 4-core x86 host, so a
  // run holds tens of repetitions to take medians over. The simulations
  // keep bench_scale's 100k-transaction operating point.
  static const std::vector<WorkloadSpec> kWorkloads = {
      {"place-replay", "OptChain", true, 500'000, 0.0, "off"},
      {"sim-optchain", "OptChain", true, 100'000, 4000.0, "off"},
      {"sim-omniledger-wan", "OmniLedger", false, 100'000, 500.0, "wan"},
  };
  return kWorkloads;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

bool check_placement(workload::TxSource& stream,
                     const placement::ShardAssignment& assignment,
                     const api::StreamOutcome& outcome,
                     std::vector<std::string>& errors) {
  const std::size_t before = errors.size();
  if (const auto size = stream.size_hint()) {
    expect_equal(assignment.total(), *size, "placed transactions", errors);
  }
  const api::StreamOutcome expected = recount(stream, assignment);
  expect_equal(outcome.total, expected.total, "counted transactions", errors);
  expect_equal(outcome.cross, expected.cross, "cross-shard transactions",
               errors);
  if (outcome.shard_sizes != expected.shard_sizes) {
    errors.push_back("shard sizes differ from the recount");
  }
  return errors.size() == before;
}

Repetition run_repetition(const WorkloadSpec& spec, std::uint64_t seed,
                          const RepetitionOptions& options) {
  Repetition rep;
  SpanLog log;
  PlacerTally tally;
  CountingObserver observer;
  SpanLog* const span_log = options.traced ? &log : nullptr;

  // ---- set-up: stream generation (into the OPTX file for placement,
  // materialized for simulation), pipeline and engine construction.
  const auto setup_start = Clock::now();
  workload::GeneratorTxSource generator({}, seed, spec.txs);
  std::vector<tx::Transaction> stream;
  const std::string trace_path =
      options.scratch_dir + "/" + spec.name + ".optx";
  if (spec.simulates()) {
    stream = workload::materialize(generator);
  } else {
    write_trace(trace_path, generator);
  }
  api::PlacementPipeline pipeline =
      build_pipeline(spec, seed, span_log, &tally, options.spin_ns);
  std::unique_ptr<sim::Simulation> simulation;
  if (spec.simulates()) {
    simulation =
        std::make_unique<sim::Simulation>(sim_config(spec, seed, observer));
  }
  rep.setup_s = seconds_since(setup_start);

  // Placement: next + step + choose + notify per transaction; simulation:
  // next + choose + notify, plus the run span.
  if (options.traced) log.reserve(4 * spec.txs + 2);

  Outcome& outcome = rep.outcome;
  std::uint64_t chunks_loaded = 0;
  if (!spec.simulates()) {
    // ---- placement-only: replay the OPTX file through the pipeline.
    api::StreamOutcome placed;
    const auto start = Clock::now();
    if (!options.traced) {
      optchain::trace::TraceTxSource source(trace_path);
      placed = pipeline.place_stream(source);
    } else {
      // The loop place_stream runs, with each step() in a span.
      optchain::trace::TraceTxSource trace_source(trace_path);
      TracingTxSource source(trace_source, log);
      if (const auto hint = source.size_hint()) pipeline.reserve(*hint);
      tx::Transaction transaction;
      while (source.next(transaction)) {
        const std::uint32_t span = log.open(SpanKind::kStep, transaction.index);
        pipeline.step(transaction);
        log.close(span);
      }
      placed.total = pipeline.cross_counter().total();
      placed.cross = pipeline.cross_counter().cross();
      placed.shard_sizes = pipeline.assignment().sizes();
      chunks_loaded = trace_source.reader().chunks_loaded();
    }
    rep.run_s = seconds_since(start);

    optchain::trace::TraceTxSource replay(trace_path);
    check_placement(replay, pipeline.assignment(), placed, rep.errors);
    std::filesystem::remove(trace_path);
    if (options.traced) {
      expect_equal(tally.seam_cross, placed.cross,
                   "cross-shard count at the placer seam", rep.errors);
    }
    outcome.total = pipeline.assignment().total();
    outcome.counted = placed.total;
    outcome.cross = placed.cross;
    outcome.shard_sizes = placed.shard_sizes;
    rep.failed = inactive_placements(pipeline.assignment());
  } else {
    // ---- simulation: the materialized stream through Simulation::run.
    workload::SpanTxSource stream_source(stream);
    sim::SimResult result;
    const auto start = Clock::now();
    if (!options.traced) {
      result = simulation->run(stream_source, pipeline);
    } else {
      TracingTxSource source(stream_source, log);
      const std::uint32_t span = log.open(SpanKind::kRun, 0);
      result = simulation->run(source, pipeline);
      log.close(span);
    }
    rep.run_s = seconds_since(start);

    if (!result.completed) {
      rep.errors.push_back("simulation did not complete by its horizon");
    }
    expect_equal(result.total_txs, stream.size(), "simulated transactions",
                 rep.errors);
    expect_equal(result.committed_txs + result.aborted_txs, result.total_txs,
                 "committed + aborted", rep.errors);
    expect_equal(observer.commits, result.committed_txs,
                 "on_commit notifications", rep.errors);
    workload::SpanTxSource replay(stream);
    expect_equal(recount(replay, pipeline.assignment()).cross,
                 result.cross_txs, "cross-shard recount", rep.errors);
    if (options.traced) {
      expect_equal(tally.seam_cross, result.cross_txs,
                   "cross-shard count at the placer seam", rep.errors);
    }
    // p99.9 is reported only with at least 10 samples beyond it.
    if (result.latencies.count() < 10'000) {
      rep.errors.push_back("fewer than 10000 commits for confirm_p999_s");
    }

    outcome.total = result.total_txs;
    outcome.counted = result.total_txs;
    outcome.cross = result.cross_txs;
    outcome.shard_sizes = result.final_shard_sizes;
    outcome.completed = result.completed;
    outcome.committed = result.committed_txs;
    outcome.aborted = result.aborted_txs;
    if (result.latencies.count() > 0) {
      outcome.confirm_p50_s = result.latencies.quantile(0.5);
      outcome.confirm_p999_s = result.latencies.quantile(0.999);
    }
    outcome.avg_latency_s = result.avg_latency_s;
    outcome.max_latency_s = result.max_latency_s;
    outcome.duration_s = result.duration_s;
    outcome.throughput_tps = result.throughput_tps;
    outcome.blocks = result.total_blocks;
    outcome.events = result.total_events;
    outcome.event_heap_peak = result.event_heap_peak;
    outcome.shard_events = result.shard_event_counts;
    outcome.link_messages = result.link_messages;
    outcome.link_bytes = result.link_bytes;
    outcome.link_drops = result.link_drops;
    outcome.link_queue_delay_s = result.link_queue_delay_s;
    const std::uint64_t unfinished =
        result.total_txs - std::min(result.total_txs,
                                    result.committed_txs + result.aborted_txs);
    rep.failed = result.aborted_txs + unfinished +
                 inactive_placements(pipeline.assignment());
  }
  if (!rep.errors.empty()) rep.failed = spec.txs;

  if (options.traced) {
    rep.layers = layer_metrics(spec, log.spans(), tally, observer, outcome,
                               chunks_loaded);
    rep.spans = log.take();
  }
  return rep;
}

}  // namespace perfbench
