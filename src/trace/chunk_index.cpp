#include "trace/chunk_index.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "txmodel/serialization.hpp"

namespace optchain::trace {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error(what);
}

/// Smallest encoding of one footer entry: three one-byte varints.
constexpr std::uint64_t kMinEntryBytes = 3;

ChunkIndex parse_footer(std::span<const std::uint8_t> footer,
                        std::uint64_t footer_offset) {
  ChunkIndex index;
  index.footer_offset = footer_offset;
  std::size_t cursor = 0;
  const auto read = [&] {
    if (cursor >= footer.size()) fail("corrupt footer: truncated index");
    return tx::read_varint(footer, cursor);
  };
  const std::uint64_t n_chunks = read();
  if (n_chunks > footer.size() / kMinEntryBytes) {
    fail("corrupt footer: chunk count exceeds the footer size");
  }
  index.chunks.reserve(static_cast<std::size_t>(n_chunks));
  std::uint64_t expected_first = 0;
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    ChunkInfo chunk;
    chunk.offset = read();
    chunk.first_index = read();
    chunk.count = read();
    const bool ordered = i == 0 || chunk.offset > index.chunks.back().offset;
    if (chunk.first_index != expected_first || chunk.count == 0 ||
        chunk.count > UINT64_MAX - expected_first || !ordered ||
        chunk.offset >= footer_offset) {
      fail("corrupt footer: inconsistent chunk index");
    }
    expected_first += chunk.count;
    index.chunks.push_back(chunk);
  }
  index.total = read();
  if (index.total != expected_first) {
    fail("corrupt footer: total does not match chunk index");
  }
  if (cursor != footer.size()) fail("corrupt footer: trailing bytes");
  return index;
}

}  // namespace

ChunkIndex read_chunk_index(std::istream& file, std::uint64_t file_size,
                            std::span<const std::uint8_t, 4> trailer_magic) {
  if (file_size < kTrailerBytes) fail("truncated: no trailer");
  std::uint8_t trailer[kTrailerBytes] = {};
  file.clear();
  file.seekg(static_cast<std::streamoff>(file_size - kTrailerBytes));
  file.read(reinterpret_cast<char*>(trailer), kTrailerBytes);
  if (!file) fail("trailer read failed");
  if (!std::equal(trailer_magic.begin(), trailer_magic.end(), trailer + 8)) {
    fail("bad trailer magic (truncated or not a finished trace)");
  }
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) {
    footer_offset = (footer_offset << 8) | trailer[i];
  }
  if (footer_offset >= file_size - kTrailerBytes) {
    fail("corrupt trailer: footer offset out of range");
  }

  std::vector<std::uint8_t> footer(
      static_cast<std::size_t>(file_size - kTrailerBytes - footer_offset));
  file.seekg(static_cast<std::streamoff>(footer_offset));
  file.read(reinterpret_cast<char*>(footer.data()),
            static_cast<std::streamsize>(footer.size()));
  if (!file) fail("footer read failed");
  return parse_footer(footer, footer_offset);
}

}  // namespace optchain::trace
