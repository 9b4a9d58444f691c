// Tests of the benchmark itself: the output-correctness recount, wrapper
// transparency, determinism of the sim-time and quality metrics, the
// idle-layer predictions of the traced run, and that the tx_per_s bound
// trips on an injected slowdown.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "workload/tx_source.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace api = optchain::api;
namespace placement = optchain::placement;
namespace tx = optchain::tx;

/// BENCHMARK.json's bound on tx_per_s.
constexpr double kTxPerSBound = 0.25;

/// `name`'s spec, shrunk to `txs` transactions. Simulations keep at least
/// 10k commits, which the confirm_p999_s check requires.
WorkloadSpec small(const std::string& name, std::uint64_t txs) {
  WorkloadSpec spec = *find_workload(name);
  spec.txs = txs;
  return spec;
}

std::map<std::string, double> by_name(const std::vector<Metric>& metrics) {
  std::map<std::string, double> values;
  for (const Metric& metric : metrics) values[metric.name] = metric.value;
  return values;
}

tx::Transaction make_tx(tx::TxIndex index, std::vector<tx::TxIndex> parents) {
  tx::Transaction transaction;
  transaction.index = index;
  for (const tx::TxIndex parent : parents) {
    transaction.inputs.push_back({parent, 0});
  }
  transaction.outputs.push_back({100, index});
  return transaction;
}

TEST(Recount, AgreesWithThePipeline) {
  optchain::workload::GeneratorTxSource source({}, 5, 5'000);
  const auto stream = optchain::workload::materialize(source);
  api::PlacementPipeline pipeline = api::make_pipeline("OptChain", 8, stream);
  const api::StreamOutcome outcome = pipeline.place_stream(stream);
  ASSERT_GT(outcome.cross, 0u);
  std::vector<std::string> errors;
  optchain::workload::SpanTxSource replay(stream);
  EXPECT_TRUE(check_placement(replay, pipeline.assignment(), outcome, errors));
  EXPECT_TRUE(errors.empty());
}

TEST(Recount, FlagsACorruptedAssignment) {
  // tx0, tx1 coinbase; tx2 spends tx0; tx3 spends tx1.
  const std::vector<tx::Transaction> stream = {
      make_tx(0, {}), make_tx(1, {}), make_tx(2, {0}), make_tx(3, {1})};
  placement::ShardAssignment honest(2);
  for (const placement::ShardId shard : {0u, 1u, 0u, 1u}) {
    honest.record(static_cast<tx::TxIndex>(honest.total()), shard);
  }
  const api::StreamOutcome outcome{2, 0, {2, 2}};
  const auto check = [&](const placement::ShardAssignment& assignment,
                         std::vector<std::string>& errors) {
    optchain::workload::SpanTxSource replay(stream);
    return check_placement(replay, assignment, outcome, errors);
  };
  std::vector<std::string> errors;
  EXPECT_TRUE(check(honest, errors));

  // Swapping tx2 and tx3 keeps the shard sizes but makes both cross-shard.
  placement::ShardAssignment swapped(2);
  for (const placement::ShardId shard : {0u, 1u, 1u, 0u}) {
    swapped.record(static_cast<tx::TxIndex>(swapped.total()), shard);
  }
  errors.clear();
  EXPECT_FALSE(check(swapped, errors));
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("cross-shard"), std::string::npos);

  // Moving one transaction changes the shard sizes too.
  placement::ShardAssignment moved = honest;
  moved.reassign(3, 0);
  errors.clear();
  EXPECT_FALSE(check(moved, errors));
}

/// A source with a non-uniform issue schedule and a known length.
class SkewedSource final : public optchain::workload::TxSource {
 public:
  bool next(tx::Transaction& out) override {
    if (index_ == 3) return false;
    out = make_tx(index_++, {});
    return true;
  }
  std::optional<std::uint64_t> size_hint() const override { return 3; }
  double issue_time(std::uint64_t index, double rate) override {
    return 7.0 * static_cast<double>(index * index) / rate;
  }

 private:
  tx::TxIndex index_ = 0;
};

/// A placer that records what reaches it.
class RecordingPlacer final : public placement::Placer {
 public:
  placement::ShardId choose(const placement::PlacementRequest& request,
                            const placement::ShardAssignment&) override {
    return request.index % 2;
  }
  void notify_placed(const placement::PlacementRequest&,
                     placement::ShardId shard) override {
    notified.push_back(shard);
  }
  void reserve(std::uint64_t expected_txs) override { reserved = expected_txs; }
  std::string_view name() const noexcept override { return "Recording"; }

  std::vector<placement::ShardId> notified;
  std::uint64_t reserved = 0;
};

TEST(Wrappers, ForwardEveryCall) {
  SpanLog log;
  SkewedSource inner;
  TracingTxSource source(inner, log);
  EXPECT_EQ(source.size_hint(), std::optional<std::uint64_t>(3));
  EXPECT_EQ(source.issue_time(2, 10.0), inner.issue_time(2, 10.0));

  PlacerTally tally;
  auto recording = std::make_unique<RecordingPlacer>();
  RecordingPlacer& placer = *recording;
  api::PlacementPipeline pipeline(
      2, std::make_unique<TracingPlacer>(std::move(recording), log, tally,
                                         false));
  EXPECT_EQ(pipeline.method_name(), "Recording");
  pipeline.reserve(3);
  EXPECT_EQ(placer.reserved, 3u);
  const api::StreamOutcome outcome = pipeline.place_stream(source);
  EXPECT_EQ(outcome.shard_sizes, (std::vector<std::uint64_t>{2, 1}));
  EXPECT_EQ(placer.notified, (std::vector<placement::ShardId>{0, 1, 0}));
  // One next() span per call (three transactions, then end of stream) and
  // one choose() and notify_placed() span per transaction.
  EXPECT_EQ(log.spans().size(), 4u + 3u + 3u);
}

TEST(Workloads, TracedRunIsTransparentAndIdleLayersStayIdle) {
  for (const WorkloadSpec& full : workloads()) {
    SCOPED_TRACE(full.name);
    const WorkloadSpec spec =
        small(full.name, full.simulates() ? 12'000 : 20'000);
    const Repetition plain = run_repetition(spec, 3, {});
    const Repetition traced = run_repetition(spec, 3, {.traced = true});
    EXPECT_TRUE(plain.errors.empty());
    EXPECT_TRUE(traced.errors.empty());
    EXPECT_EQ(plain.failed, 0u);
    EXPECT_EQ(traced.outcome, plain.outcome);
    EXPECT_TRUE(plain.layers.empty());

    auto layers = by_name(traced.layers);
    const bool replay = full.name == "place-replay";
    const bool optchain_sim = full.name == "sim-optchain";
    const bool wan = full.name == "sim-omniledger-wan";
    EXPECT_EQ(layers["trace.next_calls"] > 0, replay);
    EXPECT_EQ(layers["pipeline.step_calls"] > 0, replay);
    EXPECT_EQ(layers["l2s.calls"] > 0, optchain_sim);
    EXPECT_EQ(layers["fabric.messages"] > 0, wan);
    EXPECT_EQ(layers["sim.events"] > 0, !replay);
    EXPECT_EQ(layers["placer.choose_calls"], static_cast<double>(spec.txs));
  }
}

TEST(Workloads, SimTimeAndQualityMetricsAreDeterministic) {
  // 977 is a seed not used while the benchmark was built.
  for (const std::uint64_t seed : {1ull, 977ull}) {
    for (const char* name : {"sim-optchain", "sim-omniledger-wan"}) {
      SCOPED_TRACE(std::string(name) + " seed " + std::to_string(seed));
      const WorkloadSpec spec = small(name, 12'000);
      const Outcome first = run_repetition(spec, seed, {}).outcome;
      const Outcome second = run_repetition(spec, seed, {}).outcome;
      EXPECT_EQ(first, second);
      EXPECT_GT(first.confirm_p999_s, first.confirm_p50_s);
      EXPECT_GT(first.throughput_tps, 0.0);
    }
  }
  const WorkloadSpec spec = small("place-replay", 20'000);
  EXPECT_EQ(run_repetition(spec, 977, {}).outcome,
            run_repetition(spec, 977, {}).outcome);
  EXPECT_NE(run_repetition(spec, 1, {}).outcome,
            run_repetition(spec, 977, {}).outcome);
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

TEST(Sensitivity, BoundTripsOnAnInjectedSlowdownAndNotWithout) {
  // A spin of the per-transaction time in every choose() halves tx_per_s,
  // which the bound must flag; two measurements of the same code must stay
  // within it. The three sides alternate, so drift in the
  // host's speed reaches all of them alike.
  constexpr int kRounds = 9;
  for (const WorkloadSpec& full : workloads()) {
    SCOPED_TRACE(full.name);
    const WorkloadSpec spec =
        small(full.name, full.simulates() ? 12'000 : 50'000);
    const auto run_s = [&](std::uint64_t spin_ns) {
      return run_repetition(spec, 1, {.traced = true, .spin_ns = spin_ns})
          .run_s;
    };
    const auto spin_ns = static_cast<std::uint64_t>(
        1e9 * run_s(0) / static_cast<double>(spec.txs));
    std::vector<double> base, again, spun;
    for (int round = 0; round < kRounds; ++round) {
      base.push_back(run_s(0));
      spun.push_back(run_s(spin_ns));
      again.push_back(run_s(0));
    }
    EXPECT_LT(std::abs(1.0 - median(base) / median(again)), kTxPerSBound);
    EXPECT_GT(1.0 - median(base) / median(spun), kTxPerSBound);
  }
}

}  // namespace
}  // namespace perfbench
