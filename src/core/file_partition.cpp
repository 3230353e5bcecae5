#include "core/file_partition.hpp"

#include <algorithm>

#include "core/format.hpp"
#include "util/error.hpp"

namespace mvio::core {

namespace {

/// MPI guarantees tags are valid at least up to 32767 (MPI_TAG_UB lower
/// bound). Iteration counts can exceed that on huge files with small
/// blocks, so ring-fragment tags wrap; send/recv stay matched because both
/// sides derive the tag from the same iteration index.
constexpr std::uint64_t kTagModulus = 32768;

/// Number of ranks that actually read bytes in the iteration starting at
/// `globalOffset` (the paper's "subset of processes call the file read
/// function" in the last iteration).
int readerCount(std::uint64_t globalOffset, std::uint64_t fileSize, std::uint64_t blockSize, int nprocs) {
  if (globalOffset >= fileSize) return 0;
  const std::uint64_t remaining = fileSize - globalOffset;
  const std::uint64_t k = (remaining + blockSize - 1) / blockSize;
  return static_cast<int>(std::min<std::uint64_t>(k, static_cast<std::uint64_t>(nprocs)));
}

}  // namespace

PartitionReader::PartitionReader(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg,
                                 std::uint64_t chunkBytes, const FormatReader* format,
                                 std::uint64_t memoryBudget)
    : comm_(&comm), file_(&file), cfg_(cfg), fmt_(format), streaming_(chunkBytes > 0) {
  if (fmt_ == nullptr) fmt_ = FormatRegistry::instance().get("wkt");
  fileSize_ = file.size();
  MVIO_CHECK(fileSize_ > 0, "cannot partition an empty file");

  blockSize_ = streaming_ ? chunkBytes : cfg.blockSize;
  if (blockSize_ == 0) {
    blockSize_ = (fileSize_ + static_cast<std::uint64_t>(comm.size()) - 1) /
                 static_cast<std::uint64_t>(comm.size());
    // Algorithm 1 requires at least one record boundary per full block,
    // i.e. a block must be able to hold the largest record. For small
    // files the equal split is clamped up, leaving trailing ranks without
    // a block — "a subset of processes call the file read function".
    blockSize_ = std::max<std::uint64_t>(blockSize_, cfg.maxGeometryBytes);
    blockSize_ = std::max<std::uint64_t>(blockSize_, 1);
  }
  MVIO_CHECK(blockSize_ <= io::kRomioMaxBytes,
             "block size exceeds ROMIO's 2 GB single-operation limit; use a smaller blockSize");

  const std::uint64_t fileChunkSize = static_cast<std::uint64_t>(comm.size()) * blockSize_;
  iterations_ = (fileSize_ + fileChunkSize - 1) / fileChunkSize;
  result_.iterations = iterations_;

  if (cfg_.collectiveRead && streaming_) {
    // One stripe per aggregator per collective; the look-ahead stays
    // within the memory budget and the ROMIO single-operation limit.
    const std::uint64_t stripeBytes =
        static_cast<std::uint64_t>(file.aggregatorRanks().size()) * file.stripe().stripeSize;
    windowIters_ = std::max<std::uint64_t>(1, stripeBytes / fileChunkSize);
    if (memoryBudget > 0) {
      windowIters_ = std::min(windowIters_, std::max(blockSize_, memoryBudget) / blockSize_);
    }
    windowIters_ = std::min(windowIters_, io::kRomioMaxBytes / blockSize_);
  }
  if (cfg_.strategy == BoundaryStrategy::kMessage) {
    recvBuf_.resize(static_cast<std::size_t>(cfg_.maxGeometryBytes));
  }
}

FileRange PartitionReader::block(std::uint64_t i) const {
  const std::uint64_t start =
      (i * static_cast<std::uint64_t>(comm_->size()) + static_cast<std::uint64_t>(comm_->rank())) *
      blockSize_;
  return {start, start < fileSize_ ? std::min<std::uint64_t>(blockSize_, fileSize_ - start) : 0};
}

FileRange PartitionReader::readRange(std::uint64_t i) const {
  const FileRange own = block(i);
  if (cfg_.strategy == BoundaryStrategy::kMessage || own.length == 0) return own;
  // [start-1, start+myLen+halo): one look-back byte to detect a record
  // boundary exactly at `start`, plus the halo for the record spilling
  // over the block end.
  const std::uint64_t lo = own.offset == 0 ? 0 : own.offset - 1;
  const std::uint64_t hi = std::min<std::uint64_t>(own.offset + own.length + cfg_.maxGeometryBytes, fileSize_);
  return {lo, hi - lo};
}

std::string_view PartitionReader::fetch(const FileRange& range) {
  const auto len = static_cast<std::size_t>(range.length);
  if (!cfg_.collectiveRead) {
    buf_.resize(len);
    if (len > 0) {
      const std::size_t got = file_->readAtBytes(range.offset, buf_.data(), len);
      MVIO_CHECK(got == len, "independent read returned short");
    }
    result_.bytesRead += range.length;
    return {buf_.data(), len};
  }
  if (iter_ % windowIters_ == 0) readWindow();
  if (len == 0) return {};
  std::size_t pos = 0;
  for (const io::Run& run : windowRuns_) {
    if (range.offset >= run.offset && range.offset + range.length <= run.offset + run.length) {
      return {buf_.data() + pos + (range.offset - run.offset), len};
    }
    pos += static_cast<std::size_t>(run.length);
  }
  MVIO_CHECK(false, "iteration range outside its window read");
  return {};
}

void PartitionReader::readWindow() {
  const std::uint64_t end = std::min(iter_ + windowIters_, iterations_);
  windowRuns_.clear();
  for (std::uint64_t i = iter_; i < end; ++i) {
    const FileRange r = readRange(i);
    if (r.length == 0) continue;
    // Ranges ascend with i; kOverlap halos may overlap their successors'.
    if (!windowRuns_.empty() && r.offset <= windowRuns_.back().offset + windowRuns_.back().length) {
      io::Run& back = windowRuns_.back();
      back.length = std::max(back.length, r.offset + r.length - back.offset);
    } else {
      windowRuns_.push_back({r.offset, r.length});
    }
  }
  std::uint64_t bytes = 0;
  for (const io::Run& run : windowRuns_) bytes += run.length;
  buf_.resize(static_cast<std::size_t>(bytes));
  result_.bytesRead += file_->readAtAllRuns(windowRuns_, buf_.data());
}

bool PartitionReader::stepMessage(std::string& out) {
  const int nprocs = comm_->size();
  const int rank = comm_->rank();
  const std::uint64_t fileChunkSize = static_cast<std::uint64_t>(nprocs) * blockSize_;
  const std::uint64_t i = iter_;
  const FileRange own = block(i);
  const std::uint64_t start = own.offset;
  const int k = readerCount(i * fileChunkSize, fileSize_, blockSize_, nprocs);
  const bool lastIteration = (i + 1 == iterations_);

  // File read (Level 0 or Level 1). Collective reads include non-readers.
  std::string_view keep = fetch(own);
  if (own.length == 0) {
    if (lastIteration) MVIO_CHECK(carry_.empty() || rank != 0, "unconsumed carry fragment");
    return true;
  }

  const bool tailHolder = lastIteration && rank == k - 1;  // holds the EOF tail

  // The EOF-tail holder keeps everything up to EOF (a missing trailing
  // delimiter just means the final record is EOF-terminated). Every other
  // reader cuts its block at the last record boundary (Algorithm 1 lines
  // 9-11) and rings the dangling partial record past it to the successor;
  // it is shorter than one record, so maxGeometryBytes sizes recvBuf_.
  std::string_view fragment;
  if (!tailHolder) {
    const std::int64_t cut = fmt_->splitBoundary(keep, cfg_.maxGeometryBytes);
    MVIO_CHECK(cut >= 0,
               "no record boundary inside a file block: block size is smaller than a record; "
               "increase blockSize or maxGeometryBytes");
    fragment = keep.substr(static_cast<std::size_t>(cut));
    keep = keep.substr(0, static_cast<std::size_t>(cut));
    MVIO_CHECK(fragment.size() <= cfg_.maxGeometryBytes,
               "record fragment exceeds the successor's receive buffer: maxGeometryBytes is "
               "smaller than a record");
  }

  const bool willSend = !tailHolder;  // every reader except the EOF-tail holder
  const int succ = (rank + 1) % nprocs;
  const int pred = (rank - 1 + nprocs) % nprocs;
  // Rank 0 receives the chunk-junction fragment from rank N-1, to be
  // prepended to its next-iteration block.
  const bool willRecv = rank > 0 ? true : !lastIteration;
  const int tag = static_cast<int>(i % kTagModulus);

  std::string received;
  auto doSend = [&] {
    comm_->send(fragment.data(), static_cast<int>(fragment.size()), mpi::Datatype::char_(), succ, tag);
    result_.fragmentsSent += 1;
    result_.fragmentBytes += fragment.size();
  };
  auto doRecv = [&] {
    const mpi::Status st =
        comm_->recv(recvBuf_.data(), static_cast<int>(recvBuf_.size()), mpi::Datatype::char_(), pred, tag);
    received.assign(recvBuf_.data(), st.bytes);
  };

  // Even ranks send before receiving; odd ranks receive before sending
  // (Algorithm 1 lines 12-19).
  if (rank % 2 == 0) {
    if (willSend) doSend();
    if (willRecv) doRecv();
  } else {
    if (willRecv) doRecv();
    if (willSend) doSend();
  }

  // Assemble this iteration's text: predecessor fragment + own records.
  // Either fragment is the tail of the block ending at `start` (rank 0's
  // carry: rank N-1's block of the previous iteration), so the text is
  // the one file range [start - fragment, start + keep).
  const std::uint64_t fragmentLen = rank == 0 ? carry_.size() : received.size();
  if (rank == 0) {
    out.append(carry_);
    carry_ = std::move(received);
  } else {
    out.append(received);
  }
  out.append(keep);
  if (fragmentLen + keep.size() > 0) {
    ranges_.push_back({start - fragmentLen, fragmentLen + keep.size()});
  }
  if (lastIteration) MVIO_CHECK(carry_.empty() || rank != 0, "unconsumed carry fragment");
  return true;
}

bool PartitionReader::stepOverlap(std::string& out) {
  const FileRange own = block(iter_);
  const FileRange read = readRange(iter_);
  const std::string_view view = fetch(read);
  if (own.length == 0) return true;

  const std::uint64_t start = own.offset;
  const std::uint64_t blockEnd = start + own.length;  // absolute file offset
  const std::uint64_t readStart = read.offset;
  const std::uint64_t readEnd = read.offset + read.length;

  // First record starting inside [start, blockEnd): the first boundary at
  // an absolute offset >= start (the look-back byte at start-1 belongs to
  // the predecessor).
  std::uint64_t firstStart = 0;  // absolute
  if (start > 0) {
    const std::uint64_t b = fmt_->firstBoundary(view, start - readStart, cfg_.maxGeometryBytes);
    if (b == FormatReader::npos) return true;  // no record begins in this block
    firstStart = readStart + b;
    if (firstStart >= blockEnd) return true;  // boundary record belongs to successor
  }

  // End of the record containing byte blockEnd-1: first boundary at an
  // absolute offset >= blockEnd (or EOF for a final unterminated record).
  std::uint64_t keepEndExclusive = fileSize_;  // absolute
  const std::uint64_t e = fmt_->nextBoundary(view, firstStart - readStart, blockEnd - readStart,
                                             cfg_.maxGeometryBytes);
  if (e != FormatReader::npos) {
    keepEndExclusive = readStart + e;
  } else {
    MVIO_CHECK(readEnd == fileSize_,
               "record extends past the halo region: maxGeometryBytes is smaller than a record");
  }

  out.append(view.data() + (firstStart - readStart),
             static_cast<std::size_t>(keepEndExclusive - firstStart));
  ranges_.push_back({firstStart, keepEndExclusive - firstStart});
  return true;
}

bool PartitionReader::next(std::string& text) {
  text.clear();
  ranges_.clear();
  if (iter_ >= iterations_) return false;

  if (!streaming_) {
    // One-shot: run every iteration into one string. This rank keeps
    // ~blockSize bytes per iteration (capped by the file), so pre-size
    // the output once instead of paying append-growth copies.
    text.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(iterations_ * blockSize_, fileSize_)));
  }
  do {
    switch (cfg_.strategy) {
      case BoundaryStrategy::kMessage:
        stepMessage(text);
        break;
      case BoundaryStrategy::kOverlap:
        stepOverlap(text);
        break;
    }
    ++iter_;
  } while (!streaming_ && iter_ < iterations_);
  return true;
}

PartitionResult readPartitioned(mpi::Comm& comm, io::File& file, const PartitionConfig& cfg) {
  PartitionReader reader(comm, file, cfg);
  std::string text;
  reader.next(text);
  PartitionResult out = reader.counters();
  out.text = std::move(text);
  return out;
}

}  // namespace mvio::core
