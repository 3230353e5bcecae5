#pragma once
// File partitioning for variable-length geometries (paper §4.1, Algorithm 1).
//
// Simple partitioning by file blocks fails because a record (a polygon's
// vertex list) can straddle the boundary between two consecutive ranks'
// blocks. Two resolutions are implemented, matching the paper:
//
//  * kMessage — "dynamic file partitioning" (Algorithm 1): ranks read
//    non-overlapping fixed blocks; the dangling fragment after each
//    rank's last record boundary is passed to the successor rank with ring
//    send/recv. Even ranks send-then-recv, odd ranks recv-then-send —
//    the paper's deadlock-avoidance split. Rank N-1's fragment wraps to
//    rank 0, where it prepends rank 0's *next-iteration* block.
//
//  * kOverlap — halo reading: every rank reads its block plus a halo of
//    `maxGeometryBytes` (the paper's 11 MB bound on the largest shape)
//    and keeps exactly the records that *begin* inside its own block.
//    No messages, but O(N * halo) redundant bytes per iteration.
//
// Both honour the ROMIO 2 GB-per-operation limit via block iteration, and
// both support Level 0 (independent) and Level 1 (collective) reads.
// Where a record ends is the FormatReader's call alone (core/format.hpp):
// both strategies ask its splitBoundary / firstBoundary / nextBoundary,
// so a text format's delimiter and a binary format's length headers cut
// blocks the same way.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "io/file.hpp"
#include "mpi/runtime.hpp"

namespace mvio::core {

class FormatReader;

enum class BoundaryStrategy {
  kMessage,  ///< Algorithm 1: ring send/recv of dangling fragments
  kOverlap,  ///< halo reads with ownership by record start
};

struct PartitionConfig {
  /// Bytes per rank per iteration. 0 means "divide the file equally"
  /// (single iteration, the paper's default when no block size is given).
  std::uint64_t blockSize = 0;
  /// Upper bound on one record's size. Sizes the kOverlap halo and the
  /// kMessage receive buffer (the paper's 11 MB "largest polygon").
  std::uint64_t maxGeometryBytes = 11ull << 20;
  BoundaryStrategy strategy = BoundaryStrategy::kMessage;
  /// Level 1 (collective read_at_all) instead of Level 0 (independent).
  bool collectiveRead = false;
};

/// A byte range [offset, offset + length) of the input file.
struct FileRange {
  std::uint64_t offset = 0;
  std::uint64_t length = 0;

  friend bool operator==(const FileRange&, const FileRange&) = default;
};

/// Per-rank outcome of a partitioned read.
struct PartitionResult {
  /// This rank's complete records (possibly with a leading fragment
  /// joined from the predecessor).
  std::string text;
  std::uint64_t bytesRead = 0;       ///< bytes physically read (incl. halo redundancy)
  std::uint64_t iterations = 0;      ///< file-read iterations executed
  std::uint64_t fragmentsSent = 0;   ///< ring messages sent (kMessage)
  std::uint64_t fragmentBytes = 0;   ///< total fragment payload sent
};

/// Incremental partitioned reader — the chunk source of the streaming
/// pipeline (DESIGN.md §7). Both boundary strategies already proceed in
/// file iterations of nprocs × blockSize bytes; this class exposes that
/// loop one step at a time, so a rank can read, hand ~chunkBytes of
/// records to the parser, and release the text before touching the next
/// chunk's — or, with Level-1 reads, the next window's — raw bytes: the
/// whole-partition string never exists.
///
/// With `chunkBytes` == 0 the reader is the one-shot path: a single
/// next() call yields the rank's entire partition, with the block size
/// resolved exactly as readPartitioned always has. With `chunkBytes` > 0
/// the per-iteration block size *is* chunkBytes (it must still fit the
/// largest record, as Algorithm 1 requires) and every next() call yields
/// one iteration's records.
///
/// Level 0 reads one independent request per iteration. Level 1 reads a
/// *window* of K iterations in one two-phase collective and cuts each
/// iteration's bytes out of it: K = max(1, ⌊aggregators × stripeSize /
/// (nprocs × blockSize)⌋), one stripe per aggregator per collective,
/// capped so K × blockSize ≤ max(blockSize, memoryBudget) when a budget
/// is set. The one-shot path and K = 1 read one iteration per collective.
/// The texts, ranges and ring fragments are the same at every K.
///
/// Collective: every rank constructs the reader and calls next() in
/// lockstep until it returns false. The iteration count and the window
/// derive from the file size, striping and aggregator count, so all
/// ranks agree on them without communication; trailing ranks that read
/// no bytes in the last iteration still participate and simply yield
/// empty text.
class PartitionReader {
 public:
  /// `format` (optional, non-owning) supplies record boundary resolution
  /// under both strategies and in streaming chunk rounds alike; null
  /// means the registry's "wkt" reader (newline-terminated records).
  /// `memoryBudget` (StreamConfig::memoryBudget, 0 = unbounded) caps the
  /// raw bytes a Level-1 window looks ahead.
  PartitionReader(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg,
                  std::uint64_t chunkBytes = 0, const FormatReader* format = nullptr,
                  std::uint64_t memoryBudget = 0);

  /// Fill `text` with the next chunk's records (cleared first). Returns
  /// false once the stream is exhausted — on the same call on every rank.
  bool next(std::string& text);

  /// The input-file byte ranges the last next() call's text was cut
  /// from, in text order: reading them back and concatenating them
  /// reproduces the text exactly. kMessage yields one range per
  /// iteration — the predecessor's fragment (rank 0: the carried one) is
  /// adjacent to this rank's own prefix in the file; kOverlap yields
  /// [first record start, end of the record spanning the block end). The
  /// one-shot path yields one range per iteration that kept any bytes;
  /// empty text has no ranges.
  [[nodiscard]] const std::vector<FileRange>& lastRanges() const { return ranges_; }

  /// Number of next() calls that return true; identical on every rank.
  [[nodiscard]] std::uint64_t chunkCount() const { return streaming_ ? iterations_ : 1; }

  /// Read counters accumulated so far (the `text` field stays empty).
  [[nodiscard]] const PartitionResult& counters() const { return result_; }

 private:
  bool stepMessage(std::string& out);
  bool stepOverlap(std::string& out);
  /// This rank's own block of iteration `i` (length 0 past EOF).
  [[nodiscard]] FileRange block(std::uint64_t i) const;
  /// The bytes this rank reads in iteration `i`: its block, plus under
  /// kOverlap one look-back byte and the halo.
  [[nodiscard]] FileRange readRange(std::uint64_t i) const;
  /// The current iteration's readRange bytes: Level 0 reads them now,
  /// Level 1 cuts them out of the window read (issued at the window's
  /// first iteration). Valid until the next fetch.
  std::string_view fetch(const FileRange& range);
  /// Level 1: read iterations [iter_, iter_ + windowIters_) in one
  /// collective — the union of their readRanges as ascending runs.
  void readWindow();

  mpi::Comm* comm_;
  io::File* file_;
  PartitionConfig cfg_;
  const FormatReader* fmt_;  ///< record boundary resolution (never null)
  bool streaming_ = false;
  std::uint64_t blockSize_ = 0;
  std::uint64_t fileSize_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t iter_ = 0;  ///< next iteration to execute
  std::uint64_t windowIters_ = 1;  ///< K: iterations per Level-1 collective read
  std::vector<char> buf_;          ///< Level 0: one iteration's bytes; Level 1: the window's
  std::vector<io::Run> windowRuns_;  ///< Level 1: the window's file runs, in buf_ order
  std::vector<char> recvBuf_;  ///< kMessage: predecessor-fragment landing area
  std::string carry_;          ///< kMessage rank 0: fragment for the next iteration
  std::vector<FileRange> ranges_;  ///< file ranges of the last next() call's text
  PartitionResult result_;
};

/// Read `file` partitioned across all ranks of `comm`. Collective: every
/// rank must call. Afterwards the concatenation of all ranks' `text` (in
/// rank-major, iteration-major order) contains every record of the file
/// exactly once. (One-shot wrapper over PartitionReader.)
PartitionResult readPartitioned(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg);

}  // namespace mvio::core
