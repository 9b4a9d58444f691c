// Randomized engine property test: the repo's core determinism contract
// checked over configurations no hand-picked suite pins. Each case draws a
// small random ScenarioSpec-like operating point (placer × protocol × churn
// × re-partition × fabric preset × stream seed/length) from a fixed-seed
// PRNG and runs it twice. Both runs must produce the same SimResult and the
// same .otrace bytes (determinism rules 1 and 9), the run must drain, and
// every issued transaction must end committed or aborted. The draw sequence
// is deterministic, so a failure reproduces by case index; the SCOPED_TRACE
// string is the repro recipe.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/run_spec.hpp"
#include "obs/run_tracer.hpp"
#include "sim/fabric/fabric.hpp"
#include "sim/shard_churn.hpp"
#include "workload/bitcoin_like_generator.hpp"

namespace optchain {
namespace {

constexpr int kCases = 28;  // ≥ 25 random specs (acceptance floor)

/// One randomly drawn operating point, printable as a repro recipe.
struct DrawnCase {
  std::string method;
  std::string fabric;
  sim::ProtocolMode protocol = sim::ProtocolMode::kOmniLedger;
  std::uint32_t shards = 0;
  std::uint64_t stream_seed = 0;
  std::size_t stream_length = 0;
  double rate_tps = 0.0;
  bool churn = false;
  bool repartition = false;

  std::string describe() const {
    return "method=" + method + " fabric=" + fabric + " protocol=" +
           (protocol == sim::ProtocolMode::kOmniLedger ? "omniledger"
                                                       : "rapidchain") +
           " shards=" + std::to_string(shards) +
           " seed=" + std::to_string(stream_seed) +
           " txs=" + std::to_string(stream_length) +
           " rate=" + std::to_string(rate_tps) +
           " churn=" + (churn ? "on" : "off") +
           " repartition=" + (repartition ? "on" : "off");
  }
};

template <typename T, std::size_t N>
const T& pick(std::mt19937_64& rng, const T (&options)[N]) {
  return options[std::uniform_int_distribution<std::size_t>(0, N - 1)(rng)];
}

DrawnCase draw(std::mt19937_64& rng) {
  // Online placers only: stream-dependent methods (Metis, Static) are a
  // placement-time concern, orthogonal to the engine under test.
  static const std::string kMethods[] = {
      "OptChain",   "T2S",         "Greedy",        "Fennel",
      "OmniLedger", "LeastLoaded", "ShardScheduler"};
  static const std::string kFabrics[] = {"off", "flat", "wan", "congested"};
  static const std::uint32_t kShards[] = {3, 4, 6, 8};

  DrawnCase out;
  out.method = pick(rng, kMethods);
  out.fabric = pick(rng, kFabrics);
  out.protocol = std::bernoulli_distribution(0.5)(rng)
                     ? sim::ProtocolMode::kRapidChain
                     : sim::ProtocolMode::kOmniLedger;
  out.shards = pick(rng, kShards);
  out.stream_seed = rng();
  out.stream_length =
      std::uniform_int_distribution<std::size_t>(600, 1800)(rng);
  out.rate_tps = std::uniform_real_distribution<double>(400.0, 1200.0)(rng);
  out.churn = std::bernoulli_distribution(0.5)(rng);
  out.repartition = std::bernoulli_distribution(0.5)(rng);
  return out;
}

api::RunSpec spec_of(const DrawnCase& drawn, std::mt19937_64& rng) {
  api::RunSpec spec;
  spec.method = drawn.method;
  spec.num_shards = drawn.shards;
  spec.seed = 1 + (drawn.stream_seed % 97);
  spec.rate_tps = drawn.rate_tps;
  spec.protocol = drawn.protocol;
  spec.commit_window_s = 2.0;
  spec.queue_sample_interval_s = 1.0;
  spec.fabric = sim::fabric_preset(drawn.fabric);
  const double issue_window_s =
      static_cast<double>(drawn.stream_length) / drawn.rate_tps;
  if (drawn.churn) {
    spec.churn.events = {
        {0.3 * issue_window_s, sim::ChurnKind::kRemoveShard,
         sim::ShardChurnEvent::kAutoShard},
        {0.6 * issue_window_s, sim::ChurnKind::kAddShard, 0},
    };
  }
  if (drawn.repartition) {
    spec.repartition.interval_s = std::uniform_real_distribution<double>(
        0.25 * issue_window_s, 0.5 * issue_window_s)(rng);
    static const std::uint64_t kBudgets[] = {0, 50, 200};
    spec.repartition.budget = pick(rng, kBudgets);
    static const std::uint64_t kWindows[] = {0, 400};
    spec.repartition.window = pick(rng, kWindows);
  }
  return spec;
}

/// Full-result equality of two runs of the same spec.
void expect_identical(const sim::SimResult& first,
                      const sim::SimResult& second) {
  EXPECT_EQ(second.placer_name, first.placer_name);
  EXPECT_EQ(second.total_txs, first.total_txs);
  EXPECT_EQ(second.cross_txs, first.cross_txs);
  EXPECT_EQ(second.committed_txs, first.committed_txs);
  EXPECT_EQ(second.aborted_txs, first.aborted_txs);
  EXPECT_EQ(second.completed, first.completed);
  EXPECT_EQ(second.total_blocks, first.total_blocks);
  EXPECT_EQ(second.total_events, first.total_events);
  EXPECT_DOUBLE_EQ(second.duration_s, first.duration_s);
  EXPECT_DOUBLE_EQ(second.throughput_tps, first.throughput_tps);
  EXPECT_DOUBLE_EQ(second.avg_latency_s, first.avg_latency_s);
  EXPECT_DOUBLE_EQ(second.max_latency_s, first.max_latency_s);
  EXPECT_EQ(second.event_heap_peak, first.event_heap_peak);
  EXPECT_EQ(second.shard_event_counts, first.shard_event_counts);
  EXPECT_EQ(second.final_shard_sizes, first.final_shard_sizes);
  EXPECT_EQ(second.shard_changes, first.shard_changes);
  EXPECT_EQ(second.migrated_txs, first.migrated_txs);
  EXPECT_EQ(second.migrated_utxos, first.migrated_utxos);
  EXPECT_EQ(second.repartition_events, first.repartition_events);
  EXPECT_EQ(second.repartition_migrated_txs, first.repartition_migrated_txs);
  EXPECT_EQ(second.repartition_migrated_utxos,
            first.repartition_migrated_utxos);
  EXPECT_EQ(second.repartition_deferred_txs, first.repartition_deferred_txs);
  EXPECT_EQ(second.link_messages, first.link_messages);
  EXPECT_EQ(second.link_drops, first.link_drops);
  EXPECT_DOUBLE_EQ(second.link_peak_backlog_s, first.link_peak_backlog_s);
  EXPECT_EQ(second.latencies.count(), first.latencies.count());
  EXPECT_DOUBLE_EQ(second.latencies.average(), first.latencies.average());
  EXPECT_DOUBLE_EQ(second.latencies.maximum(), first.latencies.maximum());
  EXPECT_EQ(second.commits_per_window.counts(),
            first.commits_per_window.counts());

  const auto& first_snaps = first.queue_tracker.snapshots();
  const auto& second_snaps = second.queue_tracker.snapshots();
  ASSERT_EQ(second_snaps.size(), first_snaps.size());
  for (std::size_t i = 0; i < first_snaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(second_snaps[i].time, first_snaps[i].time);
    EXPECT_EQ(second_snaps[i].max_queue, first_snaps[i].max_queue);
    EXPECT_EQ(second_snaps[i].min_queue, first_snaps[i].min_queue);
  }
}

/// A whole file as raw bytes (trace comparison).
std::string slurp(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream out;
  out << file.rdbuf();
  return out.str();
}

TEST(EngineEquivalenceTest, RandomizedSpecsAreDeterministicAndDrain) {
  // Fixed master seed: the same kCases operating points every run, in every
  // environment. Bump the seed deliberately (never ambiently) to explore a
  // fresh region of the space.
  std::mt19937_64 rng(0x0C7C4A1A2026ull);
  const std::string trace_dir = ::testing::TempDir();
  for (int index = 0; index < kCases; ++index) {
    const DrawnCase drawn = draw(rng);
    SCOPED_TRACE("case " + std::to_string(index) + ": " + drawn.describe());

    workload::BitcoinLikeGenerator generator({}, drawn.stream_seed);
    const std::vector<tx::Transaction> txs =
        generator.generate(drawn.stream_length);

    // Every run carries an obs::RunTracer, so each case also pins
    // determinism rule 9: the captured .otrace must be byte-identical
    // across runs, not just the SimResult.
    api::RunSpec spec = spec_of(drawn, rng);
    std::string traces[2];
    api::RunReport reports[2];
    std::uint64_t records[2] = {0, 0};
    for (int run = 0; run < 2; ++run) {
      const std::string path = trace_dir + "/equiv_" + std::to_string(index) +
                               "_" + std::to_string(run) + ".otrace";
      obs::RunTracer tracer(path);
      spec.observers = {&tracer};
      reports[run] = api::simulate(spec, txs);
      records[run] = tracer.finish();
      traces[run] = slurp(path);
      std::filesystem::remove(path);
      ASSERT_TRUE(reports[run].sim.has_value());
    }

    const sim::SimResult& result = *reports[0].sim;
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.committed_txs + result.aborted_txs, result.total_txs);
    EXPECT_EQ(result.total_txs, txs.size());

    expect_identical(result, *reports[1].sim);
    EXPECT_EQ(reports[1].shard_sizes, reports[0].shard_sizes);
    EXPECT_EQ(reports[1].cross, reports[0].cross);
    EXPECT_GT(records[0], 0u);
    EXPECT_EQ(records[1], records[0]);
    EXPECT_EQ(traces[1], traces[0])
        << "rule 9 violation: .otrace bytes differ across runs";
  }
}

}  // namespace
}  // namespace optchain
