#include "recovery/recovery.hpp"

#include <algorithm>

#include "core/exchange.hpp"
#include "core/grid.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"

namespace mvio::recovery {

namespace {

/// Re-home orphaned cells onto the survivors: the shared seeded LPT
/// pass (core::lptAssignCellsSeeded — identical ordering and
/// tie-breaking to the rebalancer's map, so every survivor computes the
/// identical assignment without an agreement round), with each
/// survivor's bin seeded by the sealed loads of the cells it keeps.
void rehomeOrphans(std::vector<int>& owner, const std::vector<char>& orphan,
                   const std::vector<std::uint64_t>& loads,
                   const std::vector<int>& survivorWorld) {
  std::vector<std::uint64_t> seeded(survivorWorld.size(), 0);
  std::vector<std::size_t> worldToSurvivor;
  for (std::size_t s = 0; s < survivorWorld.size(); ++s) {
    const auto world = static_cast<std::size_t>(survivorWorld[s]);
    if (worldToSurvivor.size() <= world) worldToSurvivor.resize(world + 1, SIZE_MAX);
    worldToSurvivor[world] = s;
  }
  for (std::size_t c = 0; c < owner.size(); ++c) {
    if (!orphan[c]) seeded[worldToSurvivor[static_cast<std::size_t>(owner[c])]] += loads[c];
  }

  std::vector<int> bins(owner.size(), 0);
  core::lptAssignCellsSeeded(loads, orphan, std::move(seeded), bins);
  for (std::size_t c = 0; c < owner.size(); ++c) {
    if (orphan[c]) owner[c] = survivorWorld[static_cast<std::size_t>(bins[c])];
  }
}

}  // namespace

RecoveryOutcome recoverFromFailure(mpi::Comm& survivors, pfs::Volume& volume,
                                   const RecoveryContext& ctx, core::CellStore& ownedR,
                                   core::CellStore* ownedS, core::PhaseBreakdown* phases) {
  MVIO_CHECK(ctx.grid != nullptr && ctx.worldSize >= 2, "recovery: malformed context");
  const int myWorld = survivors.worldRank();
  // The run's partition map: cells, replay projection and the sealed-map
  // guard all go through it. A context without one is a uniform run.
  const core::PartitionMap uniformFallback =
      ctx.map == nullptr ? core::PartitionMap::uniform(*ctx.grid) : core::PartitionMap();
  const core::PartitionMap& map = ctx.map != nullptr ? *ctx.map : uniformFallback;
  const std::size_t cells = static_cast<std::size_t>(map.cellCount());
  const double t0 = survivors.clock().now();
  const double spillBefore = phases->spill;
  // Decode + re-projection CPU is charged alongside the modelled reads.
  mpi::CpuCharge cpu(survivors);
  const pfs::SpillPricer pricer = pfs::SpillPricer::onVolume(volume, survivors.nodeId());
  std::uint64_t bytesRead = 0;
  std::uint64_t chargedBytes = 0;
  // Charge the durable reads accumulated since the last call (modelled
  // PFS traffic; contention with the other recovering survivors).
  auto chargeReads = [&] {
    if (bytesRead == chargedBytes) return;
    const double t = pricer.seconds(bytesRead - chargedBytes, /*isWrite=*/false,
                                    survivors.clock().now());
    survivors.clock().advanceBy(t);
    chargedBytes = bytesRead;
  };
  auto isDead = [&](int world) {
    return std::binary_search(ctx.deadRanks.begin(), ctx.deadRanks.end(), world);
  };
  const std::vector<int>& newlyDead = ctx.newlyDead.empty() ? ctx.deadRanks : ctx.newlyDead;
  auto isNewlyDead = [&](int world) {
    return std::binary_search(newlyDead.begin(), newlyDead.end(), world);
  };

  RecoveryOutcome out;
  out.stats.recovered = true;
  out.stats.deadRanks = ctx.deadRanks.size();
  out.stats.recoveryPasses = 1;

  // 1. Recovery point: the newest fully sealed epoch at or before the
  // failure. Every survivor reads and validates the same blobs; the
  // cross-pass cache answers repeated (cascading) scans without reads.
  const std::uint64_t maxEpoch = ctx.failRound / ctx.checkpoint.everyRounds;
  const std::optional<EpochSeal> seal = findLastSealedEpoch(
      volume, ctx.checkpoint.dir, ctx.worldSize, maxEpoch, &bytesRead, ctx.sealCache);
  const std::uint64_t sealedRound = seal ? seal->roundsCompleted : 0;
  out.stats.epochUsed = seal ? seal->epoch : 0;
  std::vector<std::uint64_t> sealLoads = seal ? seal->cellLoads : std::vector<std::uint64_t>();
  sealLoads.resize(cells, 0);

  // 2. Re-home: survivors keep the cells they held before this wave,
  // cells of the newly dead are LPT re-assigned over the survivors
  // seeded with the sealed loads. `sealOwner` — the stale-manifest
  // reference for every durable shard — is always the round-robin map
  // the checkpoints were written under, regardless of how many times
  // ownership was re-homed since.
  std::vector<int> sealOwner(cells);
  for (std::size_t c = 0; c < cells; ++c) {
    sealOwner[c] = core::roundRobinOwner(static_cast<int>(c), ctx.worldSize);
  }
  MVIO_CHECK(ctx.priorOwner.empty() || ctx.priorOwner.size() == cells,
             "recovery: prior owner map size mismatch");
  out.cellOwner = ctx.priorOwner.empty() ? sealOwner : ctx.priorOwner;
  std::vector<char> orphan(cells, 0);
  for (std::size_t c = 0; c < cells; ++c) {
    orphan[c] = isNewlyDead(out.cellOwner[c]) ? 1 : 0;
  }
  rehomeOrphans(out.cellOwner, orphan, sealLoads, ctx.survivorWorld);

  if (seal) {
    MVIO_CHECK(seal->cellOwner == sealOwner,
               "recovery: sealed cell map does not match the exchange-round ownership");
    // Projection-drift guard: replay must re-project through byte-for-byte
    // the map the sealed epochs were taken under. ("" = a seal written by
    // a coordinator that never attached a map — uniform by definition.)
    MVIO_CHECK(seal->partitionMap.empty() ||
                   seal->partitionMap == core::encodePartitionMap(map),
               "recovery: sealed partition map does not match the run's map");
  }

  // 3. Restore the sealed arrivals of the orphaned cells. An orphaned
  // cell's durable shards live under its *round-robin* owner — which is
  // always one of the cumulative dead ranks (a survivor's own cells are
  // never orphaned: it still holds their records). Per source rank the
  // base checkpoint (when compaction folded one) covers epochs
  // 1..baseEpoch; the delta tail covers the rest up to the seal.
  core::CellStore* stores[2] = {&ownedR, ownedS};
  std::vector<char> srcNeeded(static_cast<std::size_t>(ctx.worldSize), 0);
  for (std::size_t c = 0; c < cells; ++c) {
    if (!orphan[c]) continue;
    MVIO_CHECK(isDead(sealOwner[c]),
               "recovery: orphaned cell's checkpoint source is not a dead rank");
    srcNeeded[static_cast<std::size_t>(sealOwner[c])] = 1;
  }
  auto keepRestored = [&](const geom::GeometryBatch& batch, geom::GeometryBatch& kept) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const int cell = batch.cell(i);
      if (orphan[static_cast<std::size_t>(cell)] &&
          out.cellOwner[static_cast<std::size_t>(cell)] == myWorld) {
        kept.appendRecordFrom(batch, i, cell);
      }
    }
  };
  for (const int dead : ctx.deadRanks) {
    if (!srcNeeded[static_cast<std::size_t>(dead)] || !seal) continue;
    std::uint64_t firstDelta = 1;
    const std::optional<BaseManifest> base =
        readBaseManifest(volume, ctx.checkpoint.dir, dead, &bytesRead);
    if (base) {
      MVIO_CHECK(base->baseEpoch <= seal->epoch,
                 "recovery: base checkpoint newer than the recovery point");
      firstDelta = base->baseEpoch + 1;
      for (int layer = 0; layer < 2; ++layer) {
        if (stores[layer] == nullptr || base->records[layer] == 0) continue;
        geom::GeometryBatch restored;
        loadBaseCheckpoint(volume, ctx.checkpoint.dir, dead, *base, layer, sealOwner, restored,
                           &bytesRead);
        geom::GeometryBatch kept;
        keepRestored(restored, kept);
        out.stats.restoredRecords += kept.size();
        stores[layer]->add(std::move(kept));
      }
    }
    for (std::uint64_t epoch = firstDelta; epoch <= seal->epoch; ++epoch) {
      const std::optional<RankEpochManifest> manifest =
          readRankManifest(volume, ctx.checkpoint.dir, dead, epoch, &bytesRead);
      MVIO_CHECK(manifest.has_value(), "recovery: missing or corrupt epoch " +
                                           std::to_string(epoch) + " manifest for dead rank " +
                                           std::to_string(dead));
      for (int layer = 0; layer < 2; ++layer) {
        if (stores[layer] == nullptr || manifest->records[layer] == 0) continue;
        geom::GeometryBatch delta;
        loadEpochDelta(volume, ctx.checkpoint.dir, dead, *manifest, layer, sealOwner, delta,
                       &bytesRead);
        geom::GeometryBatch kept;
        keepRestored(delta, kept);
        out.stats.restoredRecords += kept.size();
        stores[layer]->add(std::move(kept));
      }
    }
  }
  chargeReads();

  // 4. Replay rounds sealedRound+1..total. Rounds the survivors already
  // hold (≤ deliveredRound) re-deliver only orphaned cells; rounds the
  // failure pre-empted re-deliver everything. A survivor's own source for
  // a pre-empted round is its staged chunk, still parsed in memory; every
  // other source re-reads and re-parses its logged input ranges.
  const std::uint64_t totalRounds = ctx.roundsPerLayer[0] + ctx.roundsPerLayer[1];
  const std::uint64_t delivered = std::max(ctx.deliveredRound, ctx.failRound);
  MVIO_CHECK(ctx.failRound <= totalRounds && delivered <= totalRounds &&
                 sealedRound <= ctx.failRound,
             "recovery: round bookkeeping out of range");
  auto keepReplayed = [&](int cell, std::uint64_t round) {
    return round > delivered || orphan[static_cast<std::size_t>(cell)];
  };
  auto fromStage = [&](int q, std::uint64_t round) {
    return q == myWorld && round > delivered && ctx.takeStaged;
  };
  cpu.stop();  // the replay loop charges its CPU per region

  // Source-rank block of this survivor: its own world rank up to the next
  // survivor's (survivor 0's block starts at 0), i.e. itself plus the dead
  // ranks between. The blocks are contiguous and ascending, so the
  // exchange's source-rank-major output order is the ascending source
  // order — the order that keeps FP-sum consumers bit-identical to the
  // failure-free run. A single survivor's block is every source.
  const auto self = static_cast<std::size_t>(survivors.rank());
  MVIO_CHECK(self < ctx.survivorWorld.size() && ctx.survivorWorld[self] == myWorld,
             "recovery: survivor map does not match the survivor communicator");
  const int blockBegin = self == 0 ? 0 : ctx.survivorWorld[self];
  const int blockEnd =
      self + 1 < ctx.survivorWorld.size() ? ctx.survivorWorld[self + 1] : ctx.worldSize;
  std::vector<std::size_t> worldToSurvivor(static_cast<std::size_t>(ctx.worldSize), SIZE_MAX);
  for (std::size_t s = 0; s < ctx.survivorWorld.size(); ++s) {
    worldToSurvivor[static_cast<std::size_t>(ctx.survivorWorld[s])] = s;
  }
  const core::CellOwnerFn ownerFn = [&](int cell) {
    return static_cast<int>(worldToSurvivor[static_cast<std::size_t>(
        out.cellOwner[static_cast<std::size_t>(cell)])]);
  };

  // Logs of the block's sources — this survivor's own only when some
  // round still replays from it (a delivered round in the window C+1..F,
  // or no staged chunks to take).
  std::vector<IngestLog> logs(static_cast<std::size_t>(ctx.worldSize));
  if (sealedRound < totalRounds) {
    for (int q = blockBegin; q < blockEnd; ++q) {
      if (fromStage(q, sealedRound + 1)) continue;
      logs[static_cast<std::size_t>(q)] = readIngestLog(volume, ctx.checkpoint.dir, q, &bytesRead);
    }
  }
  core::ExchangeScratch scratch;
  for (std::uint64_t t = sealedRound + 1; t <= totalRounds; ++t) {
    const int layer = t <= ctx.roundsPerLayer[0] ? 0 : 1;
    const std::uint64_t chunk = layer == 0 ? t - 1 : t - ctx.roundsPerLayer[0] - 1;
    if (stores[layer] == nullptr) continue;
    MVIO_CHECK(ctx.datasets[layer] != nullptr, "recovery: no input dataset to replay from");
    const core::DatasetHandle& ds = *ctx.datasets[layer];
    // Each survivor re-projects only its own source block and ships every
    // kept record to the cell's owner.
    sim::ThreadCpuTimer localCpu;
    geom::GeometryBatch ship;
    for (int q = blockBegin; q < blockEnd; ++q) {
      geom::GeometryBatch raw;
      const bool staged = fromStage(q, t);
      if (staged) {
        if (!ctx.takeStaged(layer, raw)) continue;  // this rank had no chunk this round
      } else {
        const std::vector<LoggedChunk>& logged = logs[static_cast<std::size_t>(q)].chunks[layer];
        if (chunk >= logged.size()) continue;
        loadLoggedChunk(volume, ds, logged[chunk], raw, &bytesRead);
      }
      const geom::GeometryBatch projected =
          core::projectToCells(map, ctx.locator, std::move(raw));
      for (std::size_t i = 0; i < projected.size(); ++i) {
        const int cell = projected.cell(i);
        if (cell == geom::GeometryBatch::kNoCell) continue;
        if (!keepReplayed(cell, t)) continue;
        ship.appendRecordFrom(projected, i, cell);
        if (!staged) out.stats.replayedRecords += 1;
      }
    }
    survivors.clock().advanceBy(localCpu.elapsed());
    chargeReads();
    geom::GeometryBatch got =
        core::exchangeByCell(survivors, std::move(ship), ownerFn, /*windowPhases=*/1,
                             map.cellCount(), nullptr, {}, /*lastRound=*/true, &scratch);
    sim::ThreadCpuTimer storeCpu;
    stores[layer]->add(std::move(got));
    survivors.clock().advanceBy(storeCpu.elapsed());
  }

  chargeReads();  // reads accumulated outside the per-round charging
  // Scratch I/O inside recovery (spilled staged chunks reloaded, owned
  // stores flushed) charged itself to the spill phase; subtract it so
  // total() counts the time once.
  phases->recovery += (survivors.clock().now() - t0) - (phases->spill - spillBefore);
  phases->recoveryBytes += bytesRead;
  phases->recoveryRounds += totalRounds - sealedRound;
  return out;
}

}  // namespace mvio::recovery
