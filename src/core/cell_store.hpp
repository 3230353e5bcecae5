#pragma once
// Cell-major owned-record store (DESIGN.md §8).
//
// The streaming pipeline's exchange rounds deliver a rank's owned records
// in arrival order, but the refine phase consumes them cell by cell. The
// CellStore is the structure between the two: rounds add() batches as
// they arrive, and after finalize() the store serves the records of one
// cell at a time, in ascending cell-id order, without ever holding the
// whole owned set resident.
//
// Two regimes, selected by StreamConfig::memoryBudget:
//
//  * Resident (budget 0 / unbounded): arrivals splice into one batch;
//    finalize() builds per-cell record-id lists over it. cellSpan() is a
//    zero-copy view into the batch, and the whole batch is handed to the
//    task once at the end (takeResidentBatch) — the classic path.
//
//  * Streaming (budget set): whenever the accumulating segment exceeds
//    the budget — and at finalize(), unless the tail fits half the
//    budget and simply stays resident — the segment's records are
//    stably sorted by cell id and written out as one BatchShard per
//    cell run (a run larger than budget/4 encoded bytes splits into
//    several shards). Only a small directory (per shard: cell and record
//    count) stays in memory. cellSpan() then fetches exactly the shards
//    of the requested cell — every one is wholly that cell's — and
//    decodes them straight into a scratch batch, segments in flush
//    order and then the tail, so each spilled byte is fetched, verified
//    and decoded once per pass. Peak refine memory is one cell plus the
//    resident tail, not the owned-batch size.
//
// extractCell() removes a cell's records (the shard-migration path uses
// it to ship leaving cells; the cell's blobs leave the SpillStore at
// once), and addMigrated() appends records received from peers as one
// more cell-sorted segment. The store tracks its spill traffic and its
// peak resident bytes so FrameworkStats can report — and tests can
// assert — the refine-phase memory bound.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "geom/geometry_batch.hpp"
#include "pfs/spill_store.hpp"

namespace mvio::core {

/// Charges one spill transfer to the rank's clock and phase breakdown
/// (bytes, isWrite). Supplied by the framework, which owns both.
using SpillChargeFn = std::function<void(std::uint64_t, bool)>;

class CellStore {
 public:
  /// `memoryBudget` 0 = resident regime.
  CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
            SpillChargeFn charge);
  /// Source-compatible form of the constructor above for existing
  /// callers; `shardBytes` must be 0 (the run-split bound is internal).
  CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
            std::uint64_t shardBytes, SpillChargeFn charge);

  // ---- Accumulation (exchange rounds) ---------------------------------
  /// Splice one round's received records; may flush a cell-sorted segment.
  void add(geom::GeometryBatch&& roundBatch);
  /// Close accumulation; the store becomes cell-readable.
  void finalize();

  // ---- Introspection ---------------------------------------------------
  [[nodiscard]] bool streaming() const { return budget_ != 0; }
  [[nodiscard]] std::uint64_t records() const { return records_; }
  /// Ascending distinct cell ids with at least one record.
  [[nodiscard]] std::vector<int> cells() const;
  /// loads[cell] += record count, for every cell present (skew measurement;
  /// `loads` must span the grid).
  void accumulateCellLoads(std::vector<std::uint64_t>& loads) const;
  /// Bytes currently resident for refine service: scratch cell + tail
  /// (streaming) or the owned batch (resident).
  [[nodiscard]] std::uint64_t trackedBytes() const;
  [[nodiscard]] std::uint64_t peakBytes() const { return peakBytes_; }
  /// Shard bytes reloaded by cellSpan/extractCell.
  [[nodiscard]] std::uint64_t reloadBytes() const { return reloadBytes_; }

  // ---- Cell-major access (after finalize) ------------------------------
  /// The records of `cell` as a span. Resident: a view into the owned
  /// batch. Streaming: the cell's shards decoded into an internal scratch
  /// batch; the span is valid until the next cellSpan / extractCell /
  /// takeCellBatch call. Any cell order is correct.
  geom::BatchSpan cellSpan(int cell);
  /// Streaming regime: hand over the scratch batch assembled by the last
  /// cellSpan() (the per-cell adoption unit). The refine loop stages each
  /// cell this way, so pool workers refine owned batches while the store
  /// (which is not thread-safe) stays untouched (DESIGN.md §10).
  [[nodiscard]] geom::GeometryBatch takeCellBatch();
  /// Remove `cell` from the store and return its records (migration).
  /// Resident: the records are tombstoned with kNoCell in the owned batch
  /// so a later takeResidentBatch() cannot leak them to the task.
  /// Streaming: the cell's shard blobs are removed from the SpillStore.
  [[nodiscard]] geom::GeometryBatch extractCell(int cell);
  /// Append records received from peers (cell tags intact). Streaming:
  /// flushed immediately as one more cell-sorted segment.
  void addMigrated(geom::GeometryBatch&& batch);
  /// Resident regime: the whole owned batch, for whole-run adoption.
  [[nodiscard]] geom::GeometryBatch takeResidentBatch();

  /// Drop every shard blob this store wrote from the SpillStore.
  void releaseBlobs();

 private:
  /// Directory entry for one spilled shard: records of a single cell.
  struct ShardRef {
    std::string name;
    int cell = 0;
    std::uint32_t records = 0;
  };

  /// Sort `b`'s records by cell and write them out as one segment of
  /// per-cell-run shards (directory kept in memory).
  void flushSegment(const geom::GeometryBatch& b);
  /// Decode `cell`'s shards, then its tail records, into `out`; removes
  /// the shards (directory and blobs) when `extract`.
  void assembleCell(int cell, geom::GeometryBatch& out, bool extract);

  pfs::SpillStore* store_;
  std::string base_;
  std::uint64_t budget_;
  SpillChargeFn charge_;

  bool finalized_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t reloadBytes_ = 0;
  std::uint64_t peakBytes_ = 0;

  // Accumulating / resident state. After finalize, resident_ holds the
  // whole owned set (resident regime) or the under-half-budget tail
  // segment (streaming regime); cellIndex_ maps its records per cell.
  geom::GeometryBatch resident_;
  std::map<int, std::vector<std::uint32_t>> cellIndex_;

  // Streaming state: per segment, its shards in ascending cell order.
  std::vector<std::vector<ShardRef>> segments_;
  geom::GeometryBatch scratch_;
  std::vector<std::uint32_t> scratchIdx_;  ///< identity 0..n-1, grown to the largest cell
  std::size_t shardSeq_ = 0;  ///< unique shard-name counter
};

}  // namespace mvio::core
