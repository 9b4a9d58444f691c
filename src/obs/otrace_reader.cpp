#include "obs/otrace_reader.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "trace/chunk_index.hpp"
#include "txmodel/serialization.hpp"

namespace optchain::obs {
namespace {

[[noreturn]] void fail(const std::string& path, const std::string& what) {
  throw std::runtime_error("otrace reader: " + path + ": " + what);
}

/// Smallest encodings of one sample entry: a queue size is one varint; a
/// link sample is a varint endpoint, an f64 backlog and a varint drop count.
constexpr std::size_t kQueueEntryMinBytes = 1;
constexpr std::size_t kLinkEntryMinBytes = 1 + 8 + 1;

}  // namespace

OtraceReader::OtraceReader(const std::string& path)
    : file_(path, std::ios::binary), path_(path) {
  if (!file_) fail(path_, "cannot open");

  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());

  // Header: magic + version + chunk capacity.
  std::uint8_t magic[4] = {};
  file_.seekg(0, std::ios::beg);
  file_.read(reinterpret_cast<char*>(magic), 4);
  if (!file_ || !std::equal(magic, magic + 4, kOtraceMagic)) {
    fail(path_, "bad magic (not a .otrace file)");
  }
  // The header varints are tiny; 32 bytes covers any encodable pair.
  std::uint8_t header[32] = {};
  const std::size_t header_bytes = static_cast<std::size_t>(
      std::min<std::uint64_t>(sizeof(header), file_size - 4));
  file_.read(reinterpret_cast<char*>(header), header_bytes);
  std::span<const std::uint8_t> header_span(header, header_bytes);
  std::size_t offset = 0;
  const std::uint64_t version = tx::read_varint(header_span, offset);
  if (version != kOtraceVersion) {
    fail(path_, "unsupported version " + std::to_string(version));
  }
  chunk_capacity_ =
      static_cast<std::uint32_t>(tx::read_varint(header_span, offset));
  if (chunk_capacity_ == 0) fail(path_, "corrupt header (chunk_capacity 0)");

  // Trailer → footer → chunk index, validated by the parser the OPTX
  // reader shares.
  try {
    index_ = trace::read_chunk_index(file_, file_size, kOtraceTrailerMagic);
  } catch (const std::runtime_error& error) {
    fail(path_, error.what());
  }
}

void OtraceReader::load_chunk(std::size_t chunk) {
  const OtraceChunkInfo& info = index_.chunks[chunk];
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(info.offset), std::ios::beg);

  // Frame prefix: varint count + varint payload_bytes (≤ 20 bytes).
  std::uint8_t prefix[20] = {};
  file_.read(reinterpret_cast<char*>(prefix), sizeof(prefix));
  const auto prefix_read = static_cast<std::size_t>(file_.gcount());
  std::span<const std::uint8_t> prefix_span(prefix, prefix_read);
  std::size_t cursor = 0;
  std::uint64_t count = 0;
  std::uint64_t payload_bytes = 0;
  try {
    count = tx::read_varint(prefix_span, cursor);
    payload_bytes = tx::read_varint(prefix_span, cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt chunk frame");
  }
  if (count != info.count) fail(path_, "chunk count mismatch vs footer");
  // Bound the claim by the frame's slot before allocating for it: the
  // payload (and its checksum) must end before the next chunk or footer.
  const std::uint64_t payload_start = info.offset + cursor;
  const std::uint64_t frame_end = index_.frame_end(chunk);
  if (payload_start >= frame_end ||
      payload_bytes >= frame_end - payload_start) {
    fail(path_, "chunk payload size overruns the chunk frame");
  }

  buffer_.resize(static_cast<std::size_t>(payload_bytes));
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(payload_start), std::ios::beg);
  file_.read(reinterpret_cast<char*>(buffer_.data()),
             static_cast<std::streamsize>(payload_bytes));
  if (static_cast<std::uint64_t>(file_.gcount()) != payload_bytes) {
    fail(path_, "truncated chunk payload");
  }

  // Checksum frame tail, then verify before any record escapes.
  std::uint8_t checksum_buf[10] = {};
  file_.read(reinterpret_cast<char*>(checksum_buf), sizeof(checksum_buf));
  const auto checksum_read = static_cast<std::size_t>(file_.gcount());
  std::span<const std::uint8_t> checksum_span(checksum_buf, checksum_read);
  std::size_t checksum_cursor = 0;
  std::uint64_t stored = 0;
  try {
    stored = tx::read_varint(checksum_span, checksum_cursor);
  } catch (const std::exception&) {
    fail(path_, "corrupt chunk checksum");
  }
  if (stored != trace::fnv1a64(buffer_)) {
    fail(path_, "chunk checksum mismatch (corrupt trace)");
  }

  buffer_offset_ = 0;
  current_chunk_ = chunk;
}

std::uint64_t OtraceReader::read_payload_varint() {
  return tx::read_varint(buffer_, buffer_offset_);
}

std::uint64_t OtraceReader::read_payload_count(std::size_t min_entry_bytes) {
  const std::uint64_t n = read_payload_varint();
  const std::size_t left =
      buffer_offset_ < buffer_.size() ? buffer_.size() - buffer_offset_ : 0;
  if (n > left / min_entry_bytes) {
    fail(path_, "record entry count exceeds the chunk payload");
  }
  return n;
}

double OtraceReader::read_payload_f64() {
  if (buffer_offset_ + 8 > buffer_.size()) {
    fail(path_, "truncated record (f64)");
  }
  std::uint64_t bits = 0;
  for (int i = 7; i >= 0; --i) {
    bits = (bits << 8) |
           buffer_[buffer_offset_ + static_cast<std::size_t>(i)];
  }
  buffer_offset_ += 8;
  return std::bit_cast<double>(bits);
}

bool OtraceReader::next(TraceRecord& out) {
  if (next_index_ >= index_.total) return false;

  // Locate the chunk holding next_index_ (records decode in order, so this
  // is almost always the current chunk or the one after it).
  if (current_chunk_ == SIZE_MAX ||
      next_index_ >= index_.chunks[current_chunk_].first_index +
                         index_.chunks[current_chunk_].count) {
    load_chunk(current_chunk_ == SIZE_MAX ? 0 : current_chunk_ + 1);
  }

  out = TraceRecord{};
  try {
    const auto type = static_cast<TraceRecordType>(buffer_.at(buffer_offset_));
    ++buffer_offset_;
    out.type = type;
    switch (type) {
      case TraceRecordType::kIssue:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.cross = buffer_.at(buffer_offset_++) != 0;
        break;
      case TraceRecordType::kCommit:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.latency_s = read_payload_f64();
        break;
      case TraceRecordType::kAbort:
        out.tx = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        break;
      case TraceRecordType::kBlock:
        out.shard = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        break;
      case TraceRecordType::kQueueSample: {
        out.time = read_payload_f64();
        const std::uint64_t n = read_payload_count(kQueueEntryMinBytes);
        out.queues.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          out.queues.push_back(read_payload_varint());
        }
        break;
      }
      case TraceRecordType::kLinkSample: {
        out.time = read_payload_f64();
        const std::uint64_t n = read_payload_count(kLinkEntryMinBytes);
        out.links.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          TraceRecord::Link link;
          link.endpoint = read_payload_varint();
          link.backlog_s = read_payload_f64();
          link.drops = read_payload_varint();
          out.links.push_back(link);
        }
        break;
      }
      case TraceRecordType::kShardChange:
        out.shard = static_cast<std::uint32_t>(read_payload_varint());
        out.time = read_payload_f64();
        out.joined = buffer_.at(buffer_offset_++) != 0;
        out.migrated_txs = read_payload_varint();
        out.migrated_utxos = read_payload_varint();
        break;
      case TraceRecordType::kRepartition:
        out.time = read_payload_f64();
        out.migrated_txs = read_payload_varint();
        out.migrated_utxos = read_payload_varint();
        out.deferred_txs = read_payload_varint();
        break;
      default:
        fail(path_, "unknown record type " +
                        std::to_string(static_cast<unsigned>(type)));
    }
  } catch (const std::out_of_range&) {
    fail(path_, "truncated record");
  }
  ++next_index_;
  return true;
}

TraceSummary OtraceReader::summarize() {
  TraceSummary summary;
  TraceRecord record;
  while (next(record)) {
    ++summary.records;
    summary.max_time_s = std::max(summary.max_time_s, record.time);
    switch (record.type) {
      case TraceRecordType::kIssue:
        ++summary.issues;
        if (record.cross) ++summary.cross_issues;
        break;
      case TraceRecordType::kCommit:
        ++summary.commits;
        summary.max_latency_s =
            std::max(summary.max_latency_s, record.latency_s);
        break;
      case TraceRecordType::kAbort:
        ++summary.aborts;
        break;
      case TraceRecordType::kBlock:
        ++summary.blocks;
        break;
      case TraceRecordType::kQueueSample:
        ++summary.queue_samples;
        break;
      case TraceRecordType::kLinkSample:
        ++summary.link_samples;
        break;
      case TraceRecordType::kShardChange:
        ++summary.shard_changes;
        break;
      case TraceRecordType::kRepartition:
        ++summary.repartitions;
        break;
    }
  }
  return summary;
}

}  // namespace optchain::obs
