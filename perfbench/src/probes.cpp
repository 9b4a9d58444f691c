#include "probes.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

namespace placement = optchain::placement;

namespace {

std::string_view span_name(SpanKind kind) noexcept {
  switch (kind) {
    case SpanKind::kRun:
      return "run";
    case SpanKind::kNext:
      return "next";
    case SpanKind::kStep:
      return "step";
    case SpanKind::kChoose:
      return "choose";
    case SpanKind::kNotify:
      return "notify";
  }
  return "?";
}

}  // namespace

bool write_spans_csv(const std::string& path, const std::vector<Span>& spans,
                     std::uint32_t max_request) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fputs("id,parent,kind,request,start_ns,end_ns\n", file);
  for (std::size_t id = 0; id < spans.size(); ++id) {
    const Span& span = spans[id];
    if (span.request >= max_request) continue;
    const long long parent =
        span.parent == Span::kNoParent ? -1 : static_cast<long long>(span.parent);
    std::fprintf(file, "%zu,%lld,%s,%u,%lld,%lld\n", id, parent,
                 span_name(span.kind).data(), span.request,
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

TracingPlacer::TracingPlacer(std::unique_ptr<placement::Placer> inner,
                             SpanLog& log, PlacerTally& tally, bool runs_l2s,
                             std::uint64_t spin_ns)
    : inner_(std::move(inner)),
      log_(log),
      tally_(tally),
      runs_l2s_(runs_l2s),
      spin_ns_(spin_ns) {}

placement::ShardId TracingPlacer::choose(
    const placement::PlacementRequest& request,
    const placement::ShardAssignment& assignment) {
  const std::uint32_t span = log_.open(SpanKind::kChoose, request.index);
  const placement::ShardId shard = inner_->choose(request, assignment);
  if (spin_ns_ > 0) {
    const auto until = Clock::now() + std::chrono::nanoseconds(spin_ns_);
    while (Clock::now() < until) {
    }
  }
  log_.close(span);

  // Bookkeeping outside the span: choose() leaves the assignment untouched,
  // so Sin(u) read now is what the strategy saw.
  assignment.input_shards(request.input_txs, input_shards_);
  const std::uint64_t proof_set = input_shards_.size();
  tally_.input_shards_sum += proof_set;
  if (runs_l2s_ && !request.timings.empty()) {
    if (tally_.l2s_calls % kL2sSampleEvery == 0) {
      tally_.l2s_samples.push_back(
          {{request.timings.begin(), request.timings.end()}, input_shards_});
    }
    ++tally_.l2s_calls;
    tally_.proof_set_sum += proof_set;
    tally_.proof_set_max = std::max(tally_.proof_set_max, proof_set);
  }
  return shard;
}

void TracingPlacer::notify_placed(const placement::PlacementRequest& request,
                                  placement::ShardId shard) {
  const std::uint32_t span = log_.open(SpanKind::kNotify, request.index);
  inner_->notify_placed(request, shard);
  log_.close(span);
  if (std::any_of(input_shards_.begin(), input_shards_.end(),
                  [shard](placement::ShardId s) { return s != shard; })) {
    ++tally_.seam_cross;
  }
}

double replay_l2s_ns_per_call(const std::vector<L2sSample>& samples) {
  if (samples.empty()) return 0.0;
  optchain::latency::L2sEstimator estimator;
  std::vector<double> scores;
  const auto start = Clock::now();
  for (const L2sSample& sample : samples) {
    estimator.score_all(sample.timings, sample.input_shards, scores);
  }
  const double elapsed = seconds_since(start);
  return 1e9 * elapsed / static_cast<double>(samples.size());
}

}  // namespace perfbench
