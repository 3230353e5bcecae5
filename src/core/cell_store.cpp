#include "core/cell_store.hpp"

#include <algorithm>

#include "geom/batch_shard.hpp"
#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mvio::core {

CellStore::CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
                     SpillChargeFn charge)
    : store_(store),
      base_(std::move(base)),
      budget_(memoryBudget),
      charge_(std::move(charge)) {}

CellStore::CellStore(pfs::SpillStore* store, std::string base, std::uint64_t memoryBudget,
                     std::uint64_t shardBytes, SpillChargeFn charge)
    : CellStore(store, std::move(base), memoryBudget, std::move(charge)) {
  MVIO_CHECK(shardBytes == 0, "CellStore: the shard-size bound is internal (pass 0)");
}

void CellStore::add(geom::GeometryBatch&& roundBatch) {
  MVIO_CHECK(!finalized_, "CellStore: add after finalize");
  records_ += roundBatch.size();
  resident_.splice(std::move(roundBatch));
  if (streaming() && resident_.memoryBytes() > budget_) {
    flushSegment(resident_);
    resident_ = geom::GeometryBatch();
  }
}

void CellStore::finalize() {
  MVIO_CHECK(!finalized_, "CellStore: already finalized");
  finalized_ = true;
  // Streaming: the accumulated tail stays resident when it fits its half
  // of the budget (it is served through the same per-cell index as the
  // resident regime and counts against the refine memory bound);
  // otherwise it joins the cell-sorted shard segments. A run whose owned
  // set never outgrew the budget therefore spills nothing at all.
  if (streaming() && resident_.memoryBytes() > budget_ / 2) {
    flushSegment(resident_);
    resident_ = geom::GeometryBatch();
  }
  for (std::size_t i = 0; i < resident_.size(); ++i) {
    const int cell = resident_.cell(i);
    if (cell == geom::GeometryBatch::kNoCell) continue;
    cellIndex_[cell].push_back(static_cast<std::uint32_t>(i));
  }
  peakBytes_ = std::max(peakBytes_, resident_.memoryBytes());
}

void CellStore::flushSegment(const geom::GeometryBatch& b) {
  if (b.empty()) return;
  const std::size_t n = b.size();
  std::vector<std::uint32_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  // Stable: within a cell, records keep their arrival order, so the
  // concatenation of segments reproduces the resident regime's per-cell
  // record sequence.
  std::stable_sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
    return b.cell(x) < b.cell(y);
  });

  std::vector<ShardRef> segment;
  geom::GeometryBatch cur;
  ShardRef ref;
  std::uint64_t curBytes = geom::kShardHeaderBytes;

  auto closeShard = [&] {
    if (cur.empty()) return;
    std::string blob;
    blob.reserve(static_cast<std::size_t>(curBytes));
    geom::encodeShard(cur, blob);
    ref.name = base_ + ".shard" + std::to_string(shardSeq_++);
    charge_(blob.size(), /*isWrite=*/true);
    if (obs::tracingOn()) {
      obs::traceInstant("store.spill", ref.name + " (" + std::to_string(blob.size()) + " bytes)");
    }
    store_->put(ref.name, std::move(blob));
    segment.push_back(std::move(ref));
    ref = ShardRef{};
    cur = geom::GeometryBatch();
    curBytes = geom::kShardHeaderBytes;
  };

  // One shard per cell run, so the refine fetches each shard exactly
  // once; only a run past budget/4 encoded bytes splits further.
  const std::uint64_t splitBytes = std::max<std::uint64_t>(budget_ / 4, 1);
  for (const std::uint32_t i : order) {
    const int cell = b.cell(i);
    MVIO_CHECK(cell != geom::GeometryBatch::kNoCell, "CellStore: untagged record in owned set");
    const std::uint64_t rec = geom::shardRecordBytes(b, i);
    if (!cur.empty() && (cell != ref.cell || curBytes + rec > splitBytes)) closeShard();
    ref.cell = cell;
    ref.records += 1;
    cur.appendRecordFrom(b, i, cell);
    curBytes += rec;
  }
  closeShard();
  segments_.push_back(std::move(segment));
}

std::vector<int> CellStore::cells() const {
  // Both regimes index the resident records (the whole set, or the
  // streaming tail) in cellIndex_; streaming adds the shard directories.
  std::vector<int> out;
  out.reserve(cellIndex_.size());
  for (const auto& [cell, ids] : cellIndex_) out.push_back(cell);
  if (segments_.empty()) return out;  // map iteration is already ascending
  for (const auto& segment : segments_) {
    for (const ShardRef& shard : segment) out.push_back(shard.cell);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

void CellStore::accumulateCellLoads(std::vector<std::uint64_t>& loads) const {
  for (const auto& [cell, ids] : cellIndex_) {
    loads[static_cast<std::size_t>(cell)] += ids.size();
  }
  for (const auto& segment : segments_) {
    for (const ShardRef& shard : segment) {
      loads[static_cast<std::size_t>(shard.cell)] += shard.records;
    }
  }
}

std::uint64_t CellStore::trackedBytes() const {
  if (!streaming()) return resident_.memoryBytes();
  // Current cell + the resident tail segment.
  return scratch_.memoryBytes() + resident_.memoryBytes();
}

void CellStore::assembleCell(int cell, geom::GeometryBatch& out, bool extract) {
  // Spilled segments first (flush order), the resident tail last — the
  // concatenation is the cell's arrival order.
  for (std::vector<ShardRef>& segment : segments_) {
    // A segment's shards are cell-ordered and a cell's shards adjacent.
    const auto first = std::lower_bound(segment.begin(), segment.end(), cell,
                                        [](const ShardRef& s, int c) { return s.cell < c; });
    auto last = first;
    for (; last != segment.end() && last->cell == cell; ++last) {
      const std::string blob = store_->fetch(last->name);
      charge_(blob.size(), /*isWrite=*/false);
      if (obs::tracingOn()) {
        obs::traceInstant("store.reload",
                          last->name + " (" + std::to_string(blob.size()) + " bytes)");
      }
      reloadBytes_ += blob.size();
      geom::decodeShard(blob, out);
      if (extract) store_->remove(last->name);
    }
    if (extract) segment.erase(first, last);
  }
  const auto tail = cellIndex_.find(cell);
  if (tail != cellIndex_.end()) {
    for (const std::uint32_t i : tail->second) out.appendRecordFrom(resident_, i, cell);
    if (extract) cellIndex_.erase(tail);
  }
  peakBytes_ = std::max(peakBytes_, out.memoryBytes() + resident_.memoryBytes());
}

geom::BatchSpan CellStore::cellSpan(int cell) {
  MVIO_CHECK(finalized_, "CellStore: cellSpan before finalize");
  if (!streaming()) {
    const auto it = cellIndex_.find(cell);
    // Absent cells still get a span backed by a live batch, so tasks may
    // call span.batch() unconditionally.
    if (it == cellIndex_.end()) return {&resident_, nullptr, 0};
    return {&resident_, it->second.data(), it->second.size()};
  }
  scratch_ = geom::GeometryBatch();
  assembleCell(cell, scratch_, /*extract=*/false);
  // Grow-only identity table: extended only past the largest cell so far.
  while (scratchIdx_.size() < scratch_.size()) {
    scratchIdx_.push_back(static_cast<std::uint32_t>(scratchIdx_.size()));
  }
  return {&scratch_, scratchIdx_.data(), scratch_.size()};
}

geom::GeometryBatch CellStore::takeCellBatch() {
  MVIO_CHECK(streaming(), "CellStore: takeCellBatch is a streaming-regime call");
  geom::GeometryBatch out = std::move(scratch_);
  scratch_ = geom::GeometryBatch();
  return out;
}

geom::GeometryBatch CellStore::extractCell(int cell) {
  MVIO_CHECK(finalized_, "CellStore: extractCell before finalize");
  geom::GeometryBatch out;
  if (!streaming()) {
    const auto it = cellIndex_.find(cell);
    if (it == cellIndex_.end()) return out;
    for (const std::uint32_t i : it->second) {
      out.appendRecordFrom(resident_, i, cell);
      // Tombstone: the record stays in the arenas but is invisible to any
      // consumer that groups by cell tag (takeResidentBatch adoption).
      resident_.setCell(i, geom::GeometryBatch::kNoCell);
    }
    cellIndex_.erase(it);
  } else {
    assembleCell(cell, out, /*extract=*/true);
  }
  records_ -= out.size();
  return out;
}

void CellStore::addMigrated(geom::GeometryBatch&& batch) {
  MVIO_CHECK(finalized_, "CellStore: addMigrated before finalize");
  records_ += batch.size();
  if (!streaming()) {
    const std::size_t base = resident_.size();
    resident_.splice(std::move(batch));
    for (std::size_t i = base; i < resident_.size(); ++i) {
      const int cell = resident_.cell(i);
      MVIO_CHECK(cell != geom::GeometryBatch::kNoCell, "CellStore: untagged migrated record");
      cellIndex_[cell].push_back(static_cast<std::uint32_t>(i));
    }
    peakBytes_ = std::max(peakBytes_, resident_.memoryBytes());
    return;
  }
  // One more cell-sorted segment; the resident tail is left untouched.
  flushSegment(batch);
}

geom::GeometryBatch CellStore::takeResidentBatch() {
  MVIO_CHECK(!streaming(), "CellStore: takeResidentBatch is a resident-regime call");
  cellIndex_.clear();
  geom::GeometryBatch out = std::move(resident_);
  resident_ = geom::GeometryBatch();
  return out;
}

void CellStore::releaseBlobs() {
  for (const auto& segment : segments_) {
    for (const ShardRef& shard : segment) store_->remove(shard.name);
  }
  segments_.clear();
}

}  // namespace mvio::core
