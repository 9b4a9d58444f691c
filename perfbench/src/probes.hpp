// Benchmark-side instrumentation for the traced run.
//
// Spans are recorded from the benchmark's own code, around calls into each
// layer's public seam, never inside src/: three pass-through wrappers each
// forward every call to the real object and time it.
//   TracingPlacer    wraps the registry-built placement::Placer
//   TracingTxSource  wraps the workload::TxSource feeding the entry call
//   CountingObserver counts the sim::SimObserver hooks
// Spans stay in memory (SpanLog) and are written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "latency/l2s_model.hpp"
#include "placement/placer.hpp"
#include "sim/sim_observer.hpp"
#include "workload/tx_source.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Seconds elapsed since `start`.
inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The layer boundary a span was recorded at.
enum class SpanKind : std::uint8_t {
  kRun,     ///< sim::Simulation::run
  kNext,    ///< workload::TxSource::next
  kStep,    ///< api::PlacementPipeline::step
  kChoose,  ///< placement::Placer::choose
  kNotify,  ///< placement::Placer::notify_placed
};
inline constexpr std::size_t kSpanKinds = 5;

/// One timed call. `request` is the transaction the call served, so the
/// spans of one transaction share it; `parent` is the span that was open
/// when this one started (the call that caused it), or kNoParent.
struct Span {
  static constexpr std::uint32_t kNoParent = ~0u;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t parent = kNoParent;
  std::uint32_t request = 0;
  SpanKind kind = SpanKind::kRun;
};

/// In-memory span recorder. Spans nest: open() makes the new span the child
/// of the innermost open one, close() pops back to its parent.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Pre-sizes the log so recording never reallocates mid-run.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// Starts a span; returns its id for close().
  std::uint32_t open(SpanKind kind, std::uint32_t request) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({now_ns(), 0, open_, request, kind});
    open_ = id;
    return id;
  }

  /// Ends span `id` (the innermost open one).
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  std::vector<Span> take() { return std::move(spans_); }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::uint32_t open_ = Span::kNoParent;
};

/// Writes the spans of transactions below `max_request` as CSV
/// (id,parent,kind,request,start_ns,end_ns); parent is -1 for root spans.
/// Returns false on I/O failure.
bool write_spans_csv(const std::string& path, const std::vector<Span>& spans,
                     std::uint32_t max_request);

/// One L2S input captured at the placer seam, re-timed after the run.
struct L2sSample {
  std::vector<optchain::latency::ShardTiming> timings;
  std::vector<optchain::placement::ShardId> input_shards;
};

/// Every L2S input whose call count is a multiple of this is captured.
inline constexpr std::uint64_t kL2sSampleEvery = 64;

/// What the placer wrapper counts beside its spans.
struct PlacerTally {
  /// Σ |Sin(u)| over choose() calls (distinct input shards, read from the
  /// assignment).
  std::uint64_t input_shards_sum = 0;
  /// Placements whose inputs live outside the chosen shard, counted at
  /// notify_placed() — the seam's own cross-shard count.
  std::uint64_t seam_cross = 0;
  /// choose() calls that ran the L2S estimate (timings present and the
  /// strategy uses them), with the proof-set size |Sin(u)| of each.
  std::uint64_t l2s_calls = 0;
  std::uint64_t proof_set_sum = 0;
  std::uint64_t proof_set_max = 0;
  std::vector<L2sSample> l2s_samples;
};

/// Pass-through placer: forwards every call to `inner`, recording choose()
/// and notify_placed() spans and the PlacerTally counts. `runs_l2s` says
/// whether the wrapped strategy computes the L2S estimate on choose() calls
/// that carry timings. `spin_ns` adds a fixed busy wait inside each choose()
/// span; only the benchmark's sensitivity test sets it.
class TracingPlacer final : public optchain::placement::Placer {
 public:
  TracingPlacer(std::unique_ptr<optchain::placement::Placer> inner,
                SpanLog& log, PlacerTally& tally, bool runs_l2s,
                std::uint64_t spin_ns = 0);

  optchain::placement::ShardId choose(
      const optchain::placement::PlacementRequest& request,
      const optchain::placement::ShardAssignment& assignment) override;
  void notify_placed(const optchain::placement::PlacementRequest& request,
                     optchain::placement::ShardId shard) override;
  void reserve(std::uint64_t expected_txs) override {
    inner_->reserve(expected_txs);
  }
  std::string_view name() const noexcept override { return inner_->name(); }

 private:
  std::unique_ptr<optchain::placement::Placer> inner_;
  SpanLog& log_;
  PlacerTally& tally_;
  bool runs_l2s_;
  std::uint64_t spin_ns_;
  /// Sin(u) of the transaction between its choose() and notify_placed().
  std::vector<optchain::placement::ShardId> input_shards_;
};

/// Pass-through source: forwards next(), size_hint() and issue_time() to
/// `inner`, recording a span per next() call.
class TracingTxSource final : public optchain::workload::TxSource {
 public:
  TracingTxSource(optchain::workload::TxSource& inner, SpanLog& log)
      : inner_(inner), log_(log) {}

  bool next(optchain::tx::Transaction& out) override {
    const std::uint32_t span = log_.open(SpanKind::kNext, yielded_);
    const bool more = inner_.next(out);
    log_.close(span);
    if (more) ++yielded_;
    return more;
  }
  std::optional<std::uint64_t> size_hint() const override {
    return inner_.size_hint();
  }
  double issue_time(std::uint64_t index, double nominal_rate_tps) override {
    return inner_.issue_time(index, nominal_rate_tps);
  }

 private:
  optchain::workload::TxSource& inner_;
  SpanLog& log_;
  std::uint32_t yielded_ = 0;
};

/// Counts the simulation hooks the benchmark checks and reports.
class CountingObserver final : public optchain::sim::SimObserver {
 public:
  void on_commit(std::uint32_t, double, double) override { ++commits; }
  void on_block_commit(std::uint32_t, double) override { ++blocks; }
  void on_queue_sample(double,
                       std::span<const std::uint64_t> queue_sizes) override {
    for (const std::uint64_t size : queue_sizes) {
      if (size > queue_len_max) queue_len_max = size;
    }
  }

  std::uint64_t commits = 0;
  std::uint64_t blocks = 0;
  std::uint64_t queue_len_max = 0;
};

/// Mean ns per L2sEstimator::score_all call over `samples` (0 when empty).
double replay_l2s_ns_per_call(const std::vector<L2sSample>& samples);

}  // namespace perfbench
