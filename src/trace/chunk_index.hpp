// Footer index of the chunked containers: OPTX v2 traces (trace_format.hpp)
// and OTRC run traces (obs/otrace_format.hpp).
//
// Both formats end the same way: a footer
//
//   varint n_chunks, n_chunks × { varint offset, varint first_index,
//   varint count }, varint total
//
// found through a fixed 12-byte trailer (u64 LE footer offset + a 4-byte
// magic). read_chunk_index() is the one parser both readers call, so every
// check on the index exists once. The footer is untrusted input: its size is
// bounded by the file, and no count it claims is allocated before it is
// checked against the bytes that could hold it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <span>
#include <vector>

#include "trace/trace_format.hpp"

namespace optchain::trace {

/// A validated footer index: the chunks in file order, their record total,
/// and where the footer starts.
struct ChunkIndex {
  std::vector<ChunkInfo> chunks;    ///< dense, non-empty, offset-ordered
  std::uint64_t total = 0;          ///< records over all chunks
  std::uint64_t footer_offset = 0;  ///< file offset of the footer

  /// One past the last byte chunk `chunk`'s frame may occupy: the next
  /// chunk's offset, or the footer's for the last chunk.
  std::uint64_t frame_end(std::size_t chunk) const noexcept {
    return chunk + 1 < chunks.size() ? chunks[chunk + 1].offset
                                     : footer_offset;
  }
};

/// Reads the trailer and footer of the `file_size`-byte container open in
/// `file` and validates the index: the trailer magic matches
/// `trailer_magic`, the footer offset lies inside the file, n_chunks fits in
/// the footer (each entry takes at least 3 bytes), first_index is dense from
/// 0, every count is non-zero, offsets increase strictly and stay below the
/// footer, the counts sum to the stored total, and no bytes trail it.
/// Throws std::runtime_error naming the first failed check.
ChunkIndex read_chunk_index(std::istream& file, std::uint64_t file_size,
                            std::span<const std::uint8_t, 4> trailer_magic);

}  // namespace optchain::trace
