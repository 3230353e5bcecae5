#pragma once
// Failure recovery: shard re-homing onto survivors (DESIGN.md §9).
//
// When a FrameworkConfig::failSchedule wave strikes (the
// sim::FailureEvent ranks due at this round boundary or recovery pass),
// every rank of the original communicator takes part in one last
// detection collective (an allgather of alive flags — the simulation's
// stand-in for a failure detector), the communicator is shrunk to the
// survivors, and the dead ranks leave with their volatile state. The survivors then rebuild the lost state from
// the durable blobs the CheckpointCoordinator wrote:
//
//  1. Agree on the recovery point: scan epoch seals newest-first and
//     adopt the newest *fully sealed* epoch E (torn or partial epochs
//     are skipped). All survivors read the same blobs, so no extra
//     agreement round is needed. E may be 0 — recovery then replays the
//     whole round history from the chunk log.
//
//  2. Re-home orphaned cells: cells owned by dead ranks are reassigned
//     with a greedy LPT pass over the survivors only, seeded with each
//     survivor's sealed per-cell loads so the orphans land on the
//     least-loaded survivors (deterministic: same inputs, same heap
//     tie-breaks as lptAssignCells). Surviving ranks keep their own
//     cells — their arrivals are already in their cell stores and are
//     never moved or replayed.
//
//  3. Restore: each survivor reloads the dead ranks' base checkpoint
//     (when compaction folded one) plus the epoch-delta tail up to E
//     (checksums re-validated against the per-rank manifests, ownership
//     validated against the sealed cell map — the stale-manifest guard)
//     and keeps exactly the records of orphaned cells it now owns.
//
//  4. Replay: rounds E_rounds+1..total are re-derived. Each survivor
//     carries a contiguous block of source ranks: itself plus the dead
//     ranks up to the next survivor (survivor 0's block starts at rank
//     0). For a round the failure pre-empted, its own source is its
//     staged chunk, still parsed in memory (RecoveryContext::takeStaged);
//     every other chunk comes from the chunk log: its logged input-file
//     ranges are re-read from the layer's input (the DatasetHandle in the
//     context), checked against the logged checksum and re-parsed with
//     the layer's FormatReader. So the pre-empted rounds re-read only the
//     dead ranks' chunks. Every chunk is re-projected, and one
//     exchangeByCell per round routes the records to their owners; the
//     ascending blocks keep each cell's records in ascending source
//     order. Rounds already delivered (≤ deliveredRound) contribute only
//     orphaned-cell records; rounds the failure pre-empted contribute
//     everything the survivor owns.
//
// The function is re-entrant for cascading failures: a wave of deaths
// detected *during* recovery runs it again on the further-shrunken
// communicator, with `priorOwner` naming the map the previous pass
// produced and `newlyDead` the ranks lost since. Only cells orphaned by
// the new wave are restored/replayed (records already recovered by the
// survivors stay put), and the seeded LPT re-homing composes across
// passes. A SealScanCache carried across passes makes the repeated
// recovery-point scan free.
//
// The refine phase then runs unchanged over the survivor communicator
// and the recovered stores — join, index, and overlay results are
// bit-identical to the failure-free run (tests/test_recovery.cpp,
// tests/test_fault_soak.cpp).

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cell_store.hpp"
#include "core/framework.hpp"
#include "recovery/checkpoint.hpp"

namespace mvio::recovery {

/// Everything the survivors need to rebuild the dead ranks' state.
struct RecoveryContext {
  CheckpointConfig checkpoint;       ///< where the durable blobs live
  int worldSize = 0;                 ///< original communicator size
  std::vector<int> deadRanks;        ///< all world ranks lost so far (sorted, cumulative)
  std::vector<int> newlyDead;        ///< ranks lost in *this* wave (sorted ⊆ deadRanks)
  std::vector<int> survivorWorld;    ///< survivor-local rank -> world rank
  /// Cell→world-rank map before this wave struck: empty for the first
  /// pass (ownership was round-robin), the previous pass's recovered map
  /// for cascading passes.
  std::vector<int> priorOwner;
  std::uint64_t failRound = 0;       ///< data rounds completed when the first failure struck
  /// Rounds whose deliveries the survivors already hold for their
  /// non-orphaned cells: failRound on the first pass, the full round
  /// count on cascading passes (the first pass replayed to the end).
  std::uint64_t deliveredRound = 0;
  std::uint64_t roundsPerLayer[2] = {0, 0};  ///< original data-round schedule (R, S)
  /// The run's input layers (R, S; S null for single-layer runs): replay
  /// re-reads the logged chunk ranges from these files and re-parses them
  /// with their format readers.
  const core::DatasetHandle* datasets[2] = {nullptr, nullptr};
  const core::GridSpec* grid = nullptr;
  /// The run's partition map (uniform or adaptive). Replay re-projects
  /// through it, and its encoding must match the sealed epoch's embedded
  /// map — the projection-drift guard. Null = uniform over `grid`.
  const core::PartitionMap* map = nullptr;
  const core::CellLocator* locator = nullptr;  ///< null = arithmetic cell lookup
  SealScanCache* sealCache = nullptr; ///< optional cross-pass seal-scan memo
  /// Pops this survivor's next staged (parsed, not yet exchanged) chunk of
  /// `layer` into the batch, in round order; false when none is left.
  /// Replay takes the survivor's own source of every pre-empted round from
  /// here instead of re-reading it. Set on the first pass only: cascading
  /// passes treat every round as delivered, so they never call it.
  std::function<bool(int layer, geom::GeometryBatch&)> takeStaged;
};

struct RecoveryOutcome {
  /// Post-recovery cell→rank map in world ranks: survivors keep the
  /// cells they held before the wave, orphaned cells are LPT re-homed.
  /// Identical on every survivor.
  std::vector<int> cellOwner;
  core::RecoveryStats stats;
};

/// Run steps 1–4 above on the survivor communicator, appending restored
/// and replayed records into the (not yet finalized) owned cell stores.
/// `ownedS` may be null for single-layer runs. Collective over
/// `survivors`; charges modelled read I/O and replay CPU to
/// `phases->recovery` / recoveryBytes / recoveryRounds.
RecoveryOutcome recoverFromFailure(mpi::Comm& survivors, pfs::Volume& volume,
                                   const RecoveryContext& ctx, core::CellStore& ownedR,
                                   core::CellStore* ownedS, core::PhaseBreakdown* phases);

}  // namespace mvio::recovery
