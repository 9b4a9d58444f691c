// The benchmark's workloads: set-up, one timed repetition (untraced or
// traced) and the output-correctness checks every repetition runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/placement_pipeline.hpp"
#include "placement/shard_assignment.hpp"
#include "probes.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {

/// Shard count of every workload (the paper's k=16).
inline constexpr std::uint32_t kShards = 16;

/// One workload: generated Bitcoin-like streams driven through one entry
/// call. Single-threaded throughout.
struct WorkloadSpec {
  std::string name;
  /// api::PlacerRegistry strategy name.
  std::string method;
  /// Whether the strategy's choose() runs the L2S estimate when the request
  /// carries timings (OptChain does; OmniLedger ignores them).
  bool runs_l2s = false;
  /// Transactions per stream.
  std::uint64_t txs = 0;
  /// Offered rate of sim::Simulation::run; 0 means placement only: the
  /// stream is written to an OPTX file in set-up and replayed through
  /// trace::TraceTxSource into PlacementPipeline::place_stream.
  double rate_tps = 0.0;
  /// sim::fabric_preset name for the simulated network.
  std::string fabric = "off";

  bool simulates() const noexcept { return rate_tps > 0.0; }
};

/// The benchmark's workloads, in the order BENCHMARK.json lists them.
const std::vector<WorkloadSpec>& workloads();

/// The workload named `name`, or nullptr.
const WorkloadSpec* find_workload(std::string_view name);

/// Everything a repetition's result is judged on. Repetitions of one seed —
/// traced or not — must produce equal outcomes, doubles bit for bit.
struct Outcome {
  std::uint64_t total = 0;    ///< transactions through the entry call
  std::uint64_t counted = 0;  ///< denominator of the cross-shard fraction
  std::uint64_t cross = 0;    ///< cross-shard placements
  std::vector<std::uint64_t> shard_sizes;

  // Simulation only (zero for placement).
  bool completed = false;
  std::uint64_t committed = 0;
  std::uint64_t aborted = 0;
  double confirm_p50_s = 0.0;
  double confirm_p999_s = 0.0;
  double avg_latency_s = 0.0;
  double max_latency_s = 0.0;
  double duration_s = 0.0;
  double throughput_tps = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t events = 0;
  std::uint64_t event_heap_peak = 0;
  std::vector<std::uint64_t> shard_events;
  std::uint64_t link_messages = 0;
  std::uint64_t link_bytes = 0;
  std::uint64_t link_drops = 0;
  double link_queue_delay_s = 0.0;

  bool operator==(const Outcome&) const = default;
};

/// A named measurement.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One repetition: set-up, then the workload's entry call.
struct Repetition {
  double setup_s = 0.0;
  double run_s = 0.0;
  Outcome outcome;
  /// Transactions that failed: aborted, not committed by the horizon, or
  /// placed into an inactive shard. Every transaction when a check failed.
  std::uint64_t failed = 0;
  /// Failed correctness checks, one line each.
  std::vector<std::string> errors;
  /// Traced repetitions only: the per-layer metrics and the span log.
  std::vector<Metric> layers;
  std::vector<Span> spans;
};

struct RepetitionOptions {
  /// Wrap the placer and source and record spans.
  bool traced = false;
  /// Directory for the set-up's OPTX file.
  std::string scratch_dir = ".";
  /// Fixed busy wait per choose() (traced only; the sensitivity test).
  std::uint64_t spin_ns = 0;
};

/// Runs one repetition of `spec` on the stream generated from `seed`.
Repetition run_repetition(const WorkloadSpec& spec, std::uint64_t seed,
                          const RepetitionOptions& options);

/// Compares a placement outcome against an independent recount from the
/// assignment and the inputs `stream` yields (counted non-coinbase
/// transactions, those with an input outside their shard, shard sizes);
/// appends a line to `errors` per mismatch and returns whether all matched.
bool check_placement(optchain::workload::TxSource& stream,
                     const optchain::placement::ShardAssignment& assignment,
                     const optchain::api::StreamOutcome& outcome,
                     std::vector<std::string>& errors);

}  // namespace perfbench
