#include "obs/run_tracer.hpp"

#include <bit>
#include <stdexcept>

#include "trace/trace_format.hpp"
#include "txmodel/serialization.hpp"

namespace optchain::obs {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("run tracer: " + path + ": " + what);
}

}  // namespace

RunTracer::RunTracer(const std::string& path, RunTracerOptions options)
    : file_(path, std::ios::binary),
      path_(path),
      chunk_capacity_(options.chunk_capacity) {
  if (chunk_capacity_ == 0) fail(path_, "chunk_capacity must be > 0");
  if (!file_) fail(path_, "cannot open for writing");

  std::vector<std::uint8_t> header;
  for (const std::uint8_t byte : kOtraceMagic) header.push_back(byte);
  tx::write_varint(header, kOtraceVersion);
  tx::write_varint(header, chunk_capacity_);
  file_.write(reinterpret_cast<const char*>(header.data()),
              static_cast<std::streamsize>(header.size()));
  if (!file_) fail(path_, "header write failed");
  offset_ = header.size();
}

RunTracer::~RunTracer() {
  if (finished_) return;
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; an unreadable tail is caught by the
    // reader's trailer/checksum validation.
  }
}

void RunTracer::begin_record(TraceRecordType type) {
  if (finished_) fail(path_, "record after finish()");
  payload_.push_back(static_cast<std::uint8_t>(type));
}

void RunTracer::end_record() {
  ++chunk_records_;
  ++total_;
  if (chunk_records_ >= chunk_capacity_) flush_chunk();
}

void RunTracer::write_f64(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  for (int shift = 0; shift < 64; shift += 8) {
    payload_.push_back(static_cast<std::uint8_t>(bits >> shift));
  }
}

void RunTracer::on_issue(std::uint32_t tx, double time, bool cross) {
  begin_record(TraceRecordType::kIssue);
  tx::write_varint(payload_, tx);
  write_f64(time);
  payload_.push_back(cross ? 1 : 0);
  end_record();
}

void RunTracer::on_commit(std::uint32_t tx, double time, double latency_s) {
  begin_record(TraceRecordType::kCommit);
  tx::write_varint(payload_, tx);
  write_f64(time);
  write_f64(latency_s);
  end_record();
}

void RunTracer::on_abort(std::uint32_t tx, double time) {
  begin_record(TraceRecordType::kAbort);
  tx::write_varint(payload_, tx);
  write_f64(time);
  end_record();
}

void RunTracer::on_queue_sample(double time,
                                std::span<const std::uint64_t> queue_sizes) {
  begin_record(TraceRecordType::kQueueSample);
  write_f64(time);
  tx::write_varint(payload_, queue_sizes.size());
  for (const std::uint64_t size : queue_sizes) {
    tx::write_varint(payload_, size);
  }
  end_record();
}

void RunTracer::on_block_commit(std::uint32_t shard, double time) {
  begin_record(TraceRecordType::kBlock);
  tx::write_varint(payload_, shard);
  write_f64(time);
  end_record();
}

void RunTracer::on_link_sample(double time,
                               std::span<const sim::LinkSample> links) {
  begin_record(TraceRecordType::kLinkSample);
  write_f64(time);
  tx::write_varint(payload_, links.size());
  for (const sim::LinkSample& link : links) {
    tx::write_varint(payload_, link.endpoint);
    write_f64(link.backlog_s);
    tx::write_varint(payload_, link.drops);
  }
  end_record();
}

void RunTracer::on_shard_change(std::uint32_t shard, double time, bool joined,
                                std::uint64_t migrated_txs,
                                std::uint64_t migrated_utxos) {
  begin_record(TraceRecordType::kShardChange);
  tx::write_varint(payload_, shard);
  write_f64(time);
  payload_.push_back(joined ? 1 : 0);
  tx::write_varint(payload_, migrated_txs);
  tx::write_varint(payload_, migrated_utxos);
  end_record();
}

void RunTracer::on_repartition(double time, std::uint64_t migrated_txs,
                               std::uint64_t migrated_utxos,
                               std::uint64_t deferred_txs) {
  begin_record(TraceRecordType::kRepartition);
  write_f64(time);
  tx::write_varint(payload_, migrated_txs);
  tx::write_varint(payload_, migrated_utxos);
  tx::write_varint(payload_, deferred_txs);
  end_record();
}

void RunTracer::flush_chunk() {
  if (chunk_records_ == 0) return;
  OtraceChunkInfo info;
  info.offset = offset_;
  info.first_index = total_ - chunk_records_;
  info.count = chunk_records_;

  // Head (count + size) and tail (checksum) bracket the payload, which is
  // written straight from the accumulation buffer — no per-chunk copy.
  std::vector<std::uint8_t> head;
  tx::write_varint(head, chunk_records_);
  tx::write_varint(head, payload_.size());
  std::vector<std::uint8_t> tail;
  tx::write_varint(tail, trace::fnv1a64(payload_));
  file_.write(reinterpret_cast<const char*>(head.data()),
              static_cast<std::streamsize>(head.size()));
  file_.write(reinterpret_cast<const char*>(payload_.data()),
              static_cast<std::streamsize>(payload_.size()));
  file_.write(reinterpret_cast<const char*>(tail.data()),
              static_cast<std::streamsize>(tail.size()));
  if (!file_) fail(path_, "chunk write failed");

  offset_ += head.size() + payload_.size() + tail.size();
  chunks_.push_back(info);
  payload_.clear();
  chunk_records_ = 0;
}

std::uint64_t RunTracer::finish() {
  if (finished_) return total_;
  flush_chunk();

  const std::uint64_t footer_offset = offset_;
  std::vector<std::uint8_t> footer;
  tx::write_varint(footer, chunks_.size());
  for (const OtraceChunkInfo& chunk : chunks_) {
    tx::write_varint(footer, chunk.offset);
    tx::write_varint(footer, chunk.first_index);
    tx::write_varint(footer, chunk.count);
  }
  tx::write_varint(footer, total_);

  // Fixed-size trailer: u64 LE footer offset + trailer magic, so a reader
  // finds the footer from the file's end without parsing anything else.
  for (int shift = 0; shift < 64; shift += 8) {
    footer.push_back(static_cast<std::uint8_t>(footer_offset >> shift));
  }
  for (const std::uint8_t byte : kOtraceTrailerMagic) footer.push_back(byte);

  file_.write(reinterpret_cast<const char*>(footer.data()),
              static_cast<std::streamsize>(footer.size()));
  file_.close();
  if (!file_) fail(path_, "footer write failed");
  finished_ = true;
  return total_;
}

}  // namespace optchain::obs
