// Checkpoint/recovery subsystem tests (DESIGN.md §9): epoch checkpoint
// round trips over all seven OGC types + userData, torn-seal and
// corrupt-manifest crash consistency (recovery falls back to the previous
// sealed epoch), the stale-manifest ownership guard shared by
// DistributedIndex::loadShards and the recovery loader, the adaptive
// rebalance trigger, and the headline acceptance property — killing
// k ≥ 1 ranks mid-stream yields join, index, and overlay results
// bit-identical to the failure-free run, with PhaseBreakdown reporting
// the checkpoint and recovery byte/round volumes.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <functional>
#include <map>
#include <mutex>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/spatial_join.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "recovery/checkpoint.hpp"
#include "recovery/recovery.hpp"
#include "util/error.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mr = mvio::recovery;

namespace {

/// A batch covering all seven OGC types with mixed userData and cells.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "LINESTRING (0 0, 10 10, 12 4)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  int cell = 0;
  for (const char* w : wkts) {
    mg::Geometry g = mg::readWkt(w);
    g.userData = std::string("attr-") + std::to_string(cell) + std::string(cell, 'x');
    batch.append(g, cell);
    ++cell;
  }
  return batch;
}

void expectRecordsEqual(const mg::GeometryBatch& a, std::size_t i, const mg::GeometryBatch& b,
                        std::size_t j) {
  EXPECT_EQ(a.type(i), b.type(j));
  EXPECT_EQ(a.cell(i), b.cell(j));
  EXPECT_EQ(a.envelope(i), b.envelope(j));
  EXPECT_EQ(a.userData(i), b.userData(j));
  EXPECT_EQ(mg::writeWkb(a.materialize(i)), mg::writeWkb(b.materialize(j)));
}

std::shared_ptr<mp::Volume> lustreVolume(int nodes = 8) {
  mp::LustreParams params;
  params.nodes = nodes;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

/// The batch as WKT input text: one "WKT<tab>userData" record per line,
/// the layout text ingest reads.
std::string wktLines(const mg::GeometryBatch& batch) {
  std::string text;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    text += mg::writeWkt(batch.materialize(i));
    text += '\t';
    text += batch.userData(i);
    text += '\n';
  }
  return text;
}

/// Read a whole volume file into a string (for bit-identity assertions).
std::string fileBytes(mp::Volume& volume, const std::string& name) {
  const auto file = volume.lookup(name);
  std::string bytes(file->data->size(), '\0');
  file->data->read(0, bytes.data(), bytes.size());
  return bytes;
}

/// Two-layer fixture sized so a 4 KB-chunk streaming run executes well
/// over six data rounds on four ranks — room for a mid-stream kill point
/// with sealed epochs both behind and ahead of it.
struct RecoveryFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");

  RecoveryFixture() {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 61);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 1500)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 62);
    specS.space.world = specR.space.world;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 800)));
  }

  static mc::StreamConfig streamedConfig(std::uint64_t checkpointEvery,
                                         const std::string& ckptDir) {
    mc::StreamConfig sc;
    sc.chunkBytes = 4 << 10;
    sc.memoryBudget = 32 << 10;
    sc.checkpointEveryRounds = checkpointEvery;
    sc.checkpointDir = ckptDir;
    return sc;
  }
};

}  // namespace

// ---- Checkpoint writer / reader round trips ------------------------------

TEST(Checkpoint, EpochRoundTripAllTypes) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  // The ingest side of the chunk log: an input file and the batch text
  // ingest parses out of it.
  const std::string input = wktLines(batch);
  volume->create("rt.wkt", std::make_shared<mp::MemoryBackingStore>(input));
  const mc::DatasetHandle ds{"rt.wkt", mc::FormatRegistry::instance().get("wkt")};
  mg::GeometryBatch parsed;
  ds.format->parseChunk(input, parsed, nullptr);
  ASSERT_EQ(parsed.size(), batch.size());

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = "__ck_rt";
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    ASSERT_TRUE(ckpt.enabled());

    // Logged as two ranges cut mid-record: replay concatenates them.
    const std::uint64_t cut = input.size() / 2;
    ckpt.logChunk(0, {{0, cut}, {cut, input.size() - cut}}, input);
    ckpt.sealIngest();
    ckpt.noteRound(0, batch);
    const std::vector<int> owner(8, 0);  // one rank owns every cell
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    EXPECT_EQ(ckpt.epochsSealed(), 1u);
    EXPECT_GT(phases.checkpointBytes, 0u);
    EXPECT_EQ(phases.checkpointEpochs, 1u);

    // Seal + manifest validate and the delta reproduces every record.
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.dir, 1, 1);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 1u);
    EXPECT_EQ(seal->roundsCompleted, 1u);
    ASSERT_EQ(seal->cellLoads.size(), owner.size());
    EXPECT_EQ(seal->cellLoads[3], 1u);

    const auto manifest = mr::readRankManifest(*volume, cfg.dir, 0, 1);
    ASSERT_TRUE(manifest.has_value());
    EXPECT_EQ(manifest->records[0], batch.size());
    mg::GeometryBatch delta;
    mr::loadEpochDelta(*volume, cfg.dir, 0, *manifest, 0, owner, delta);
    ASSERT_EQ(delta.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) expectRecordsEqual(batch, i, delta, i);

    // The chunk log round-trips the pre-projection records too:
    // re-reading the logged ranges and re-parsing them gives back the
    // batch parsed at ingest.
    const mr::IngestLog log = mr::readIngestLog(*volume, cfg.dir, 0);
    ASSERT_EQ(log.chunks[0].size(), 1u);
    EXPECT_EQ(log.chunks[1].size(), 0u);
    EXPECT_EQ(log.chunks[0][0].bytes, input.size());
    EXPECT_EQ(log.chunks[0][0].ranges.size(), 2u);
    mg::GeometryBatch chunk;
    std::uint64_t replayBytes = 0;
    EXPECT_EQ(mr::loadLoggedChunk(*volume, ds, log.chunks[0][0], chunk, &replayBytes),
              parsed.size());
    EXPECT_EQ(replayBytes, input.size());
    ASSERT_EQ(chunk.size(), parsed.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) expectRecordsEqual(parsed, i, chunk, i);

    // Stale-manifest guard: a map that assigns a present cell elsewhere
    // rejects the delta.
    std::vector<int> stale(owner);
    stale[2] = 1;
    mg::GeometryBatch rejected;
    EXPECT_THROW(mr::loadEpochDelta(*volume, cfg.dir, 0, *manifest, 0, stale, rejected),
                 mvio::util::Error);
  });
}

TEST(Checkpoint, TornSealFallsBackToPreviousEpoch) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = "__ck_torn";
    cfg.tearEpochSeal = 2;  // epoch 2's seal is written truncated
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(2, owner));

    // The torn epoch-2 seal is rejected; the scan falls back to epoch 1.
    EXPECT_FALSE(mr::readEpochSeal(*volume, cfg.dir, 2).has_value());
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.dir, 1, 2);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 1u);

    // A corrupted rank manifest makes epoch 1 partial too: no epoch
    // survives validation.
    mp::SpillStore rankStore(*volume, mr::rankPrefix(cfg.dir, 0));
    std::string m = rankStore.fetch("ep1.manifest");
    m[10] ^= 0x40;
    rankStore.put("ep1.manifest", std::move(m));
    EXPECT_FALSE(mr::findLastSealedEpoch(*volume, cfg.dir, 1, 2).has_value());
  });
}

// ---- DistributedIndex::loadShards stale-manifest guard -------------------

TEST(DistributedIndex, LoadShardsRejectsStaleOwnership) {
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 43);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator gen(spec);
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 4, 4);
  mg::GeometryBatch batch;
  for (std::uint64_t i = 0; i < 80; ++i) {
    const mg::Geometry g = gen.geometry(i);
    batch.append(g, grid.cellOfPoint(g.envelope().center()));
  }
  const auto original = mc::DistributedIndex::fromBatch(std::move(batch), grid);

  auto volume = lustreVolume(2);
  mp::SpillStore store(*volume, "__cells/rank0");
  original.saveShards(store, "owned", 8 << 10);

  // Validation against the map that assigns every cell to this rank: ok.
  std::vector<int> owner(static_cast<std::size_t>(grid.cellCount()), 0);
  const auto loaded = mc::DistributedIndex::loadShards(store, "owned", 0, &owner, 0);
  EXPECT_EQ(loaded.localGeometries(), original.localGeometries());

  // Move one populated cell to another rank: the manifest is stale for
  // rank 0 and the load must fail instead of double-serving the cell.
  ASSERT_GT(original.batch().size(), 0u);
  const int movedCell = original.batch().cell(0);
  std::vector<int> stale(owner);
  stale[static_cast<std::size_t>(movedCell)] = 1;
  EXPECT_THROW(mc::DistributedIndex::loadShards(store, "owned", 0, &stale, 0), mvio::util::Error);
}

// ---- Adaptive rebalance trigger ------------------------------------------

TEST(AdaptiveRebalance, SkipsWhenImbalanceBelowThreshold) {
  RecoveryFixture fx;
  // Threshold high enough that no realistic imbalance clears it: the pass
  // must measure, record, and skip — no cells move, nothing hits the wire.
  std::atomic<int> skipped{0};
  std::atomic<std::uint64_t> moved{0}, wireBytes{0};
  std::atomic<int> measured{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.framework.rebalanceCells = true;
    cfg.framework.rebalanceThreshold = 1e9;
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg);
    if (stats.balance.skipped) skipped += 1;
    if (stats.balance.imbalance >= 1.0) measured += 1;
    moved += stats.balance.cellsMoved;
    wireBytes += stats.balance.transport.bytesSent;
  });
  EXPECT_EQ(skipped.load(), 4);
  EXPECT_EQ(measured.load(), 4) << "imbalance must be measured even when the pass is skipped";
  EXPECT_EQ(moved.load(), 0u);
  EXPECT_EQ(wireBytes.load(), 0u);

  // The default threshold (1.0) always triggers on non-empty grids.
  std::atomic<int> ran{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.framework.rebalanceCells = true;
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg);
    if (!stats.balance.skipped && stats.balance.imbalance >= 1.0) ran += 1;
  });
  EXPECT_EQ(ran.load(), 4);
}

// ---- Headline acceptance: kill ranks mid-stream, results identical -------

namespace {

struct JoinRun {
  std::vector<mc::JoinPair> pairs;   ///< all live ranks' pairs, sorted
  std::uint64_t globalPairs = 0;
  std::uint64_t dataRounds = 0;      ///< max PhaseBreakdown::rounds minus terminations
  int died = 0, recovered = 0;
  std::uint64_t checkpointBytes = 0, recoveryBytes = 0, recoveryRounds = 0;
  std::uint64_t epochUsed = 0;
  std::uint64_t recoveryPasses = 0;   ///< max across survivors
  std::uint64_t deadRanksSeen = 0;    ///< max RecoveryStats::deadRanks (cumulative)
  std::uint64_t compactionBytes = 0, reclaimedBytes = 0;  ///< summed across ranks
  std::uint64_t migrationPasses = 0;  ///< max across ranks, both layers
  std::uint64_t replayedRecords = 0;  ///< RecoveryStats::replayedRecords, summed over survivors
  double spillSeconds = 0;            ///< max PhaseBreakdown::spill across ranks
  mc::GridSpec grid;                  ///< the run's grid (from a finishing rank)
};

JoinRun runJoin(RecoveryFixture& fx, const std::function<void(mc::JoinConfig&)>& tweak) {
  JoinRun run;
  std::mutex mu;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework.gridCells = 36;
    tweak(cfg);
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mu);
    run.pairs.insert(run.pairs.end(), local.begin(), local.end());
    run.dataRounds = std::max(run.dataRounds, stats.phases.rounds);
    run.checkpointBytes += stats.phases.checkpointBytes;
    run.compactionBytes += stats.phases.compactionBytes;
    run.reclaimedBytes += stats.phases.reclaimedBytes;
    run.migrationPasses = std::max(run.migrationPasses, stats.balance.migrationPasses);
    run.spillSeconds = std::max(run.spillSeconds, stats.phases.spill);
    if (!stats.recovery.died) run.grid = stats.grid;
    // A rank killed *during* recovery carries both bits: it recovered in
    // an earlier pass, then died. Count it as a death only — recovered
    // tallies the ranks that finished the job.
    if (stats.recovery.died) run.died += 1;
    if (!stats.recovery.died && stats.recovery.recovered) {
      run.recovered += 1;
      run.globalPairs = stats.globalPairs;
      run.recoveryBytes += stats.phases.recoveryBytes;
      run.replayedRecords += stats.recovery.replayedRecords;
      run.recoveryRounds = std::max(run.recoveryRounds, stats.phases.recoveryRounds);
      run.epochUsed = stats.recovery.epochUsed;
      run.recoveryPasses = std::max(run.recoveryPasses, stats.recovery.recoveryPasses);
      run.deadRanksSeen = std::max(run.deadRanksSeen, stats.recovery.deadRanks);
    } else if (!stats.recovery.died) {
      run.globalPairs = stats.globalPairs;
    }
  });
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

}  // namespace

TEST(FailureRecovery, JoinBitIdenticalAfterMidStreamKill) {
  RecoveryFixture fx;

  // Failure-free baseline (checkpointing on, so its overhead is also
  // exercised on the no-failure path).
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_base");
  });
  ASSERT_FALSE(base.pairs.empty());
  EXPECT_EQ(base.died, 0);
  EXPECT_GT(base.checkpointBytes, 0u) << "checkpointed run must write durable bytes";
  // Two-layer streaming: rounds = dataR + 1 + dataS + 1.
  ASSERT_GE(base.dataRounds, 8u) << "fixture must stream enough rounds for a mid-stream kill";

  // Kill one rank after round 3 (epoch 1 sealed at round 2 — one round of
  // deliveries to the dead rank is unsealed and must come back via replay).
  const JoinRun killed = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_k1");
    cfg.framework.failSchedule = {{2, 3, 0}};
  });
  EXPECT_EQ(killed.died, 1);
  EXPECT_EQ(killed.recovered, 3);
  EXPECT_EQ(killed.epochUsed, 1u);
  EXPECT_GT(killed.recoveryBytes, 0u) << "PhaseBreakdown must report recovery bytes";
  EXPECT_GT(killed.recoveryRounds, 0u) << "PhaseBreakdown must report replayed rounds";
  EXPECT_EQ(killed.pairs, base.pairs) << "join results must be identical to the failure-free run";
  EXPECT_EQ(killed.globalPairs, base.globalPairs);

  // Kill two ranks (k = 2), later in the stream.
  const JoinRun killed2 = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_k2");
    cfg.framework.failSchedule = {{1, 5, 0}, {3, 5, 0}};
  });
  EXPECT_EQ(killed2.died, 2);
  EXPECT_EQ(killed2.recovered, 2);
  EXPECT_EQ(killed2.epochUsed, 2u) << "epoch 2 (sealed at round 4) is the recovery point";
  EXPECT_EQ(killed2.pairs, base.pairs);

  // Torn seal: the epoch sealed just before the kill is torn mid-write;
  // recovery must fall back to the previous sealed epoch and replay more
  // rounds — results still identical.
  const JoinRun torn = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_torn_e2e");
    cfg.framework.stream.tearEpochSeal = 2;
    cfg.framework.failSchedule = {{2, 5, 0}};
  });
  EXPECT_EQ(torn.recovered, 3);
  EXPECT_EQ(torn.epochUsed, 1u) << "torn epoch 2 must be skipped in favour of epoch 1";
  EXPECT_GT(torn.recoveryRounds, killed2.recoveryRounds)
      << "falling back one epoch must replay more rounds than the same kill with epoch 2 intact";
  EXPECT_EQ(torn.pairs, base.pairs);

  // Failure recovery composed with skew-aware rebalancing on the
  // survivors (world-rank translation of the LPT map).
  const JoinRun rebalanced = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_rb");
    cfg.framework.failSchedule = {{2, 3, 0}};
    cfg.framework.rebalanceCells = true;
  });
  EXPECT_EQ(rebalanced.recovered, 3);
  EXPECT_EQ(rebalanced.pairs, base.pairs);
}

TEST(FailureRecovery, OverlayRasterBitIdenticalWhenRankZeroDies) {
  RecoveryFixture fx;
  std::array<std::string, 2> rasters;
  std::array<double, 2> totalsR{0, 0};
  std::array<int, 2> died{0, 0};

  for (int mode = 0; mode < 2; ++mode) {
    const std::string out = mode == 0 ? "cov_base.bin" : "cov_killed.bin";
    std::mutex mu;
    mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = out;
      if (mode == 1) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_ov");
        // Rank 0 dies: epoch seals it wrote pre-kill must still commit,
        // and the survivors' collective write re-roots on the shrunk
        // communicator.
        cfg.framework.failSchedule = {{0, 4, 0}};
      }
      mc::DatasetHandle r{"r.wkt", fx.wkt};
      mc::DatasetHandle s{"s.wkt", fx.wkt};
      const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
      std::lock_guard<std::mutex> lock(mu);
      if (stats.recovery.died) died[static_cast<std::size_t>(mode)] += 1;
      if (!stats.recovery.died) totalsR[static_cast<std::size_t>(mode)] = stats.totalR;
    });
    rasters[static_cast<std::size_t>(mode)] = fileBytes(*fx.volume, out);
  }

  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(died[1], 1);
  EXPECT_EQ(rasters[0], rasters[1])
      << "coverage raster must be bit-identical to the failure-free run";
  EXPECT_NEAR(totalsR[0], totalsR[1], 1e-9 * std::max(1.0, std::abs(totalsR[0])));
  EXPECT_GT(totalsR[0], 0.0);
}

TEST(FailureRecovery, SingleLayerIndexMatchesAfterKill) {
  RecoveryFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};
  std::array<std::vector<std::uint64_t>, 2> counts;
  counts.fill(std::vector<std::uint64_t>(queries.size(), 0));

  for (int mode = 0; mode < 2; ++mode) {
    std::mutex mu;
    mm::Runtime::run(5, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 49;
      if (mode == 1) {
        cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__ck_idx");
        cfg.framework.failSchedule = {{1, 3, 0}, {3, 3, 0}};
      }
      mc::DatasetHandle data{"r.wkt", fx.wkt};
      mc::IndexingStats stats;
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
      if (stats.recovery.died) {
        EXPECT_EQ(index.localGeometries(), 0u) << "dead ranks adopt nothing";
        return;
      }
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[static_cast<std::size_t>(mode)][q] += local;
      }
    });
  }
  EXPECT_EQ(counts[0], counts[1]) << "index query counts must survive the kill";
  EXPECT_GT(counts[0][1], 0u);
}

// ---- Replay re-reads only what died (DESIGN.md §9 step 4, §11) ----------

namespace {

/// Input store that counts the bytes read from it, so input re-reads can
/// be told apart from checkpoint-blob reads.
class CountingStore final : public mp::BackingStore {
 public:
  explicit CountingStore(std::string bytes) : inner_(std::move(bytes)) {}
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  void read(std::uint64_t offset, char* dst, std::size_t n) const override {
    bytesRead_ += n;
    inner_.read(offset, dst, n);
  }
  [[nodiscard]] std::uint64_t bytesRead() const { return bytesRead_.load(); }

 private:
  mp::MemoryBackingStore inner_;
  mutable std::atomic<std::uint64_t> bytesRead_{0};
};

/// One two-layer overlay run on the fixture; returns the raster bytes.
std::string overlayRaster(RecoveryFixture& fx, const std::string& out,
                          const std::function<void(mc::FrameworkConfig&)>& tweak) {
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::OverlayConfig cfg;
    cfg.framework.gridCells = 36;
    cfg.outputPath = out;
    tweak(cfg.framework);
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
  });
  return fileBytes(*fx.volume, out);
}

}  // namespace

TEST(FailureRecovery, ReplayReReadsOnlyTheDeadRanksChunks) {
  RecoveryFixture fx;
  std::shared_ptr<CountingStore> inputs[2];
  const std::string paths[2] = {"r.wkt", "s.wkt"};
  for (int l = 0; l < 2; ++l) {
    inputs[l] = std::make_shared<CountingStore>(fileBytes(*fx.volume, paths[l]));
    fx.volume->createOrReplace(paths[l], inputs[l]);
  }
  const auto inputReads = [&] { return inputs[0]->bytesRead() + inputs[1]->bytesRead(); };

  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__rr_base");
  });
  const std::uint64_t ingestReads = inputReads();
  ASSERT_GT(ingestReads, 0u);

  // Rank 1 dies right at the epoch-2 seal (round 4): no orphan window,
  // so every replayed chunk belongs to a pre-empted round.
  constexpr std::uint64_t kKill = 4;
  const std::string dir = "__rr_kill";
  const JoinRun killed = runJoin(fx, [&](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, dir);
    cfg.framework.failSchedule = {{1, kKill, 0}};
  });
  const std::uint64_t reread = inputReads() - 2 * ingestReads;
  ASSERT_EQ(killed.died, 1);
  ASSERT_EQ(killed.epochUsed, 2u) << "the kill must land on a seal boundary";
  EXPECT_EQ(killed.pairs, base.pairs);

  std::size_t roundsR = 0;
  for (int q = 0; q < 4; ++q) {
    roundsR = std::max(roundsR, mr::readIngestLog(*fx.volume, dir, q).chunks[0].size());
  }
  const mr::IngestLog dead = mr::readIngestLog(*fx.volume, dir, 1);
  std::uint64_t deadBytes = 0;
  std::uint64_t deadRecords = 0;  // projected records, as replay counts them
  const mc::PartitionMap map = mc::PartitionMap::uniform(killed.grid);
  const mc::CellLocator locator(killed.grid);
  const mc::DatasetHandle ds[2] = {{"r.wkt", fx.wkt}, {"s.wkt", fx.wkt}};
  for (int l = 0; l < 2; ++l) {
    for (std::size_t i = 0; i < dead.chunks[l].size(); ++i) {
      // Global data round of the chunk: layer R's rounds come first.
      if ((l == 0 ? 0 : roundsR) + i + 1 <= kKill) continue;
      deadBytes += dead.chunks[l][i].bytes;
      mg::GeometryBatch raw;
      mr::loadLoggedChunk(*fx.volume, ds[l], dead.chunks[l][i], raw);
      const mg::GeometryBatch projected = mc::projectToCells(map, &locator, std::move(raw));
      for (std::size_t k = 0; k < projected.size(); ++k) {
        if (projected.cell(k) != mg::GeometryBatch::kNoCell) deadRecords += 1;
      }
    }
  }
  ASSERT_GT(deadBytes, 0u);
  EXPECT_EQ(reread, deadBytes)
      << "the survivors together must re-read exactly the dead rank's chunks of the pre-empted "
         "rounds; their own come from their staged chunks";
  EXPECT_GT(killed.recoveryBytes, reread)
      << "recovery bytes also count the seal, manifest and chunk-log reads";
  EXPECT_EQ(killed.replayedRecords, deadRecords)
      << "replayed records count only records re-parsed from the chunk log";
}

TEST(FailureRecovery, StagedReplayBitIdenticalForEveryCarrierAndComposition) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__cr_base");
  });
  ASSERT_FALSE(base.pairs.empty());
  const std::string baseRaster = overlayRaster(fx, "cr_base.bin", [](mc::FrameworkConfig& fw) {
    fw.stream = RecoveryFixture::streamedConfig(2, "__cr_base_ov");
  });

  struct Case {
    const char* name;
    std::vector<mvio::sim::FailureEvent> schedule;
    std::function<void(mc::FrameworkConfig&)> tweak;
  };
  const auto none = [](mc::FrameworkConfig&) {};
  // Rank 0 dead: the first survivor carries it, and its chunk goes first.
  // Ranks 1 and 2 dead: survivor 0 carries both. Rank 3 dead: the last
  // survivor carries it. Kill rounds 3 and 5 leave a one-round orphan
  // window, round 4 none. Then the staged replay under the worker pool
  // with round overlap, and under an 8 KiB budget — about one parsed
  // chunk, so the stager spills and replay reloads through the spiller.
  const std::vector<Case> cases = {
      {"rank0", {{0, 4, 0}}, none},
      {"adjacent", {{1, 5, 0}, {2, 5, 0}}, none},
      {"last", {{3, 3, 0}}, none},
      {"threads_overlap", {{2, 5, 0}},
       [](mc::FrameworkConfig& fw) {
         fw.threadsPerRank = 4;
         fw.stream.overlapRounds = true;
       }},
      {"stager_spill", {{2, 5, 0}}, [](mc::FrameworkConfig& fw) { fw.stream.memoryBudget = 8 << 10; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto killed = [&](mc::FrameworkConfig& fw, const std::string& dir) {
      fw.stream = RecoveryFixture::streamedConfig(2, dir);
      fw.failSchedule = c.schedule;
      c.tweak(fw);
    };
    const std::string dir = std::string("__cr_") + c.name;
    const JoinRun run = runJoin(fx, [&](mc::JoinConfig& cfg) { killed(cfg.framework, dir); });
    EXPECT_EQ(run.died, static_cast<int>(c.schedule.size()));
    EXPECT_EQ(run.recovered, 4 - run.died);
    EXPECT_EQ(run.pairs, base.pairs);
    EXPECT_EQ(run.globalPairs, base.globalPairs);
    if (std::string_view(c.name) == "stager_spill") {
      EXPECT_GT(run.spillSeconds, 0.0) << "the budget must make the stager spill";
    }
    const std::string raster =
        overlayRaster(fx, std::string("cr_") + c.name + ".bin",
                      [&](mc::FrameworkConfig& fw) { killed(fw, dir + "_ov"); });
    EXPECT_EQ(raster, baseRaster) << "coverage raster must be bit-identical to the failure-free run";
  }
}

// ---- Replay order: each cell's records in ascending source order --------

namespace {

/// Order-sensitive probe: records each cell's record-key sequence (both
/// layers' userData, in the order refine sees them). Join pairs, index
/// contents and sorted-measure sums are blind to a reordering inside a
/// cell; this fingerprint is not.
class OrderProbe final : public mc::RefineTask {
 public:
  void refineCellBatch(const mc::GridSpec& /*grid*/, int cell, const mg::BatchSpan& r,
                       const mg::BatchSpan& s) override {
    std::string& seq = sequences[cell];
    for (const mg::BatchSpan* span : {&r, &s}) {
      for (std::size_t k = 0; k < span->size(); ++k) {
        seq.append(span->userData(k));
        seq += ',';
      }
      seq += '|';
    }
  }
  std::map<int, std::string> sequences;
};

/// Every live rank's per-cell sequences of one streamed two-layer run
/// (a cell is refined on one rank only), plus the number of dead ranks.
std::pair<std::map<int, std::string>, int> cellSequences(
    RecoveryFixture& fx, const std::string& dir, const std::vector<mvio::sim::FailureEvent>& schedule) {
  std::map<int, std::string> cells;
  int died = 0;
  std::mutex mu;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::FrameworkConfig fw;
    fw.gridCells = 36;
    fw.stream = RecoveryFixture::streamedConfig(2, dir);
    fw.failSchedule = schedule;
    const mc::DatasetHandle r{"r.wkt", fx.wkt};
    const mc::DatasetHandle s{"s.wkt", fx.wkt};
    OrderProbe probe;
    const mc::FrameworkStats stats = mc::runFilterRefine(comm, *fx.volume, r, &s, fw, probe);
    std::lock_guard<std::mutex> lock(mu);
    if (stats.recovery.died) {
      died += 1;
      return;
    }
    for (auto& [cell, seq] : probe.sequences) {
      EXPECT_TRUE(cells.emplace(cell, std::move(seq)).second) << "cell " << cell << " refined twice";
    }
  });
  return {std::move(cells), died};
}

}  // namespace

TEST(FailureRecovery, ReplayDeliversEachCellsRecordsInFailureFreeOrder) {
  // DESIGN.md §11: the replay ships each survivor's source block in
  // ascending source order, so every cell's records reach refine in the
  // failure-free order — what keeps FP-sum consumers bit-identical.
  // Rank 0 dead (its records go first, carried by survivor 1), rank 1
  // dead (survivor 0 carries its own staged chunk, then rank 1's) and
  // adjacent ranks 1+2 dead (survivor 0 carries three sources).
  RecoveryFixture fx;
  const auto base = cellSequences(fx, "__ord_base", {});
  ASSERT_FALSE(base.first.empty());
  ASSERT_EQ(base.second, 0);
  const std::vector<std::pair<const char*, std::vector<mvio::sim::FailureEvent>>> cases = {
      {"rank0", {{0, 4, 0}}}, {"rank1", {{1, 4, 0}}}, {"adjacent", {{1, 5, 0}, {2, 5, 0}}}};
  for (const auto& [name, schedule] : cases) {
    SCOPED_TRACE(name);
    const auto run = cellSequences(fx, std::string("__ord_") + name, schedule);
    EXPECT_EQ(run.second, static_cast<int>(schedule.size()));
    EXPECT_EQ(run.first, base.first) << "a cell's records reached refine in a different order";
  }
}

// ---- Cascading failures + compaction + sharded replay (DESIGN.md §11) ----

TEST(CascadingFailure, SecondKillDuringRecoveryBitIdenticalWithCompaction) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__cas_base");
  });
  ASSERT_FALSE(base.pairs.empty());

  // Sharded replay plus checkpoint GC + compaction, on a two-kill
  // schedule: rank 2 dies at the round-5 boundary and rank 1 dies
  // *during* the recovery pass.
  const JoinRun cascaded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__cas_new");
    cfg.framework.stream.compaction.everyEpochs = 2;
    cfg.framework.failSchedule = {{2, 5, 0}, {1, 5, 1}};
  });
  EXPECT_EQ(cascaded.died, 2);
  EXPECT_EQ(cascaded.recovered, 2);
  EXPECT_EQ(cascaded.recoveryPasses, 2u) << "the mid-recovery death must trigger a second pass";
  EXPECT_EQ(cascaded.deadRanksSeen, 2u);
  EXPECT_EQ(cascaded.epochUsed, 2u) << "epoch 2 (sealed at round 4) is the recovery point";
  EXPECT_EQ(cascaded.pairs, base.pairs)
      << "join results must survive a cascading two-kill schedule";
  EXPECT_EQ(cascaded.globalPairs, base.globalPairs);
  EXPECT_GT(cascaded.compactionBytes, 0u) << "the round-4 seal must have folded a base";
  EXPECT_GT(cascaded.reclaimedBytes, 0u) << "GC must delete folded deltas";
}

TEST(CascadingFailure, ShardedReplayCascadeWithoutCompactionBitIdentical) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__eq_base");
  });

  // A two-kill cascade with compaction off: the survivors split the
  // chunk-log replay by source rank, with nothing folded to fall back on.
  const JoinRun sharded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__eq_shard");
    cfg.framework.failSchedule = {{1, 3, 0}, {3, 3, 1}};
  });
  EXPECT_EQ(sharded.died, 2);
  EXPECT_EQ(sharded.recoveryPasses, 2u);
  EXPECT_EQ(sharded.pairs, base.pairs);
  EXPECT_EQ(sharded.globalPairs, base.globalPairs);
}

TEST(CascadingFailure, LaterRoundWaveComposesWithRebalance) {
  RecoveryFixture fx;
  const JoinRun base = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__lw_base");
  });

  // A second wave scheduled at a *later* round boundary: everything past
  // the first kill is recovery territory, so the survivors detect it on
  // their next allgather and run another pass — composed with skew-aware
  // rebalancing on the doubly-shrunk communicator.
  const JoinRun waves = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, "__lw_run");
    cfg.framework.stream.compaction.everyEpochs = 1;
    cfg.framework.failSchedule = {{0, 3, 0}, {2, 5, 0}};
    cfg.framework.rebalanceCells = true;
  });
  EXPECT_EQ(waves.died, 2);
  EXPECT_EQ(waves.recovered, 2);
  EXPECT_EQ(waves.recoveryPasses, 2u);
  EXPECT_EQ(waves.pairs, base.pairs);
}

// ---- Fault-schedule input checks -----------------------------------------

TEST(FaultSchedule, RejectsMalformedSchedules) {
  RecoveryFixture fx;
  // Each schedule is malformed on its own; runFilterRefine must refuse it
  // with util::Error on every rank, for the named reason, instead of
  // hanging or killing anyone.
  int run = 0;
  const auto rejects = [&](const std::string& reason,
                           const std::vector<mvio::sim::FailureEvent>& schedule,
                           std::uint64_t checkpointEvery = 2) {
    SCOPED_TRACE(reason);
    const std::string dir = "__fs_bad" + std::to_string(run++);
    const auto tweak = [&](mc::JoinConfig& cfg) {
      cfg.framework.stream = RecoveryFixture::streamedConfig(checkpointEvery, dir);
      cfg.framework.failSchedule = schedule;
    };
    EXPECT_THROW(
        try { runJoin(fx, tweak); } catch (const mvio::util::Error& e) {
          EXPECT_NE(std::string(e.what()).find(reason), std::string::npos) << e.what();
          throw;
        },
        mvio::util::Error);
  };
  rejects("kills the same rank twice", {{1, 3, 0}, {1, 5, 0}});
  rejects("at least one survivor", {{0, 3, 0}, {1, 3, 0}, {2, 3, 0}, {3, 3, 0}});
  rejects("requires StreamConfig::checkpointEveryRounds", {{2, 3, 0}}, /*checkpointEvery=*/0);
  rejects("without a kill round", {{2, 0, 0}});
  rejects("beyond the data-round schedule", {{2, 1000, 0}});
  rejects("first failure wave", {{2, 3, 1}});
}

// ---- Budget-bounded migration --------------------------------------------

TEST(AdaptiveRebalance, BudgetBoundedMigrationKeepsResults) {
  RecoveryFixture fx;
  const JoinRun unbounded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.rebalanceCells = true;
  });
  ASSERT_FALSE(unbounded.pairs.empty());
  EXPECT_EQ(unbounded.migrationPasses, 2u) << "no budget: one pass per layer";

  // A tiny memory budget forces the leaving cells through several staged
  // passes; each cell still moves wholly in one pass, so per-cell record
  // order — and every refine result — is unchanged.
  const JoinRun bounded = runJoin(fx, [](mc::JoinConfig& cfg) {
    cfg.framework.rebalanceCells = true;
    cfg.framework.stream.chunkBytes = 4 << 10;
    cfg.framework.stream.memoryBudget = 8 << 10;
  });
  EXPECT_GT(bounded.migrationPasses, 2u)
      << "a budget smaller than the leaving sets must stage the migration";
  EXPECT_EQ(bounded.pairs, unbounded.pairs);
  EXPECT_EQ(bounded.globalPairs, unbounded.globalPairs);
}

// ---- Checkpoint GC + epoch compaction ------------------------------------

TEST(Checkpoint, CompactionFoldsAndReclaims) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = "__ck_gc";
    cfg.compactEveryEpochs = 2;
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::string text = wktLines(batch);
    for (int i = 0; i < 4; ++i) ckpt.logChunk(0, {{0, text.size()}}, text);
    ckpt.sealIngest();
    const std::vector<int> owner(8, 0);
    for (std::uint64_t e = 1; e <= 4; ++e) {
      ckpt.noteRound(0, batch);
      ASSERT_TRUE(ckpt.maybeCheckpoint(e, owner));
    }

    // Epoch 4's seal triggered the second fold: base 3 supersedes base 1.
    const auto baseM = mr::readBaseManifest(*volume, cfg.dir, 0);
    ASSERT_TRUE(baseM.has_value());
    EXPECT_EQ(baseM->baseEpoch, 3u);
    EXPECT_EQ(baseM->roundsCovered, 3u);
    EXPECT_EQ(baseM->records[0], 3 * batch.size());
    mg::GeometryBatch restored;
    EXPECT_EQ(mr::loadBaseCheckpoint(*volume, cfg.dir, 0, *baseM, 0, owner, restored),
              3 * batch.size());

    // The seal scan still validates after GC: manifests and seals are
    // kept even for folded epochs.
    const auto seal = mr::findLastSealedEpoch(*volume, cfg.dir, 1, 4);
    ASSERT_TRUE(seal.has_value());
    EXPECT_EQ(seal->epoch, 4u);

    // Folded delta shards are gone (their manifest survives as metadata).
    const auto m1 = mr::readRankManifest(*volume, cfg.dir, 0, 1);
    ASSERT_TRUE(m1.has_value());
    mg::GeometryBatch dropped;
    EXPECT_THROW(mr::loadEpochDelta(*volume, cfg.dir, 0, *m1, 0, owner, dropped),
                 mvio::util::Error);
    // Epoch 4 is outside the base: its delta must still load.
    const auto m4 = mr::readRankManifest(*volume, cfg.dir, 0, 4);
    ASSERT_TRUE(m4.has_value());
    mg::GeometryBatch tail;
    EXPECT_EQ(mr::loadEpochDelta(*volume, cfg.dir, 0, *m4, 0, owner, tail), batch.size());

    // The chunk log is one manifest of input ranges, not per-round
    // blobs: compaction leaves it whole.
    EXPECT_EQ(mr::readIngestLog(*volume, cfg.dir, 0).chunks[0].size(), 4u);

    // The superseded base-1 shards were reclaimed too.
    mp::SpillStore rankStore(*volume, mr::rankPrefix(cfg.dir, 0));
    EXPECT_FALSE(rankStore.contains(mr::baseShardName(1, 0, 0)));
    EXPECT_TRUE(rankStore.contains(mr::baseShardName(3, 0, 0)));

    EXPECT_GT(phases.compactionBytes, 0u);
    EXPECT_GT(phases.reclaimedBytes, 0u);
    EXPECT_GT(phases.compaction, 0.0) << "fold I/O must be charged to the compaction phase";
  });
}

TEST(Checkpoint, CompactionSkipsTornSeal) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = "__ck_gc_torn";
    cfg.compactEveryEpochs = 2;
    cfg.tearEpochSeal = 2;  // the epoch that would trigger the fold
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(1, owner));
    ckpt.noteRound(0, batch);
    ASSERT_TRUE(ckpt.maybeCheckpoint(2, owner));

    // A torn seal must not anchor a fold: no base, nothing reclaimed, and
    // the epoch-1 delta the fallback recovery reads is still in place.
    EXPECT_FALSE(mr::readBaseManifest(*volume, cfg.dir, 0).has_value());
    EXPECT_EQ(phases.compactionBytes, 0u);
    EXPECT_EQ(phases.reclaimedBytes, 0u);
    const auto m1 = mr::readRankManifest(*volume, cfg.dir, 0, 1);
    ASSERT_TRUE(m1.has_value());
    mg::GeometryBatch delta;
    EXPECT_EQ(mr::loadEpochDelta(*volume, cfg.dir, 0, *m1, 0, owner, delta), batch.size());
  });
}

TEST(Checkpoint, ReplayRejectsChangedOrTruncatedInput) {
  auto volume = lustreVolume(2);
  const std::string input = wktLines(mixedBatch());
  volume->create("in.wkt", std::make_shared<mp::MemoryBackingStore>(input));
  const mc::DatasetHandle ds{"in.wkt", mc::FormatRegistry::instance().get("wkt")};
  const std::string dir = "__ck_input";

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = dir;
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    ckpt.logChunk(0, {{0, input.size()}}, input);
    ckpt.sealIngest();
  });
  const mr::LoggedChunk logged = mr::readIngestLog(*volume, dir, 0).chunks[0].at(0);
  mg::GeometryBatch ok;
  ASSERT_EQ(mr::loadLoggedChunk(*volume, ds, logged, ok), 7u);

  // One input byte changed after ingest (a digit of the first record, so
  // the text still parses): replay must refuse the text, naming the
  // checksum, instead of silently re-parsing different records.
  const auto file = volume->lookup("in.wkt");
  const std::size_t digit = input.find('3');
  ASSERT_NE(digit, std::string::npos);
  const char changed = '4';
  file->data->write(digit, &changed, 1);
  mg::GeometryBatch rejected;
  try {
    mr::loadLoggedChunk(*volume, ds, logged, rejected);
    ADD_FAILURE() << "replay accepted a changed input byte";
  } catch (const mvio::util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos) << e.what();
  }
  EXPECT_EQ(rejected.size(), 0u) << "nothing may be appended from a rejected chunk";

  // The input truncated after ingest: the logged range now runs past EOF.
  volume->createOrReplace("in.wkt", std::make_shared<mp::MemoryBackingStore>(
                                        input.substr(0, input.size() / 2)));
  EXPECT_THROW(mr::loadLoggedChunk(*volume, ds, logged, rejected), mvio::util::Error);
  EXPECT_EQ(rejected.size(), 0u);
}

TEST(Checkpoint, StreamingRunLogsInputRangesNotChunkBlobs) {
  RecoveryFixture fx;
  const std::string dir = "__ck_logical";
  const JoinRun run = runJoin(fx, [&](mc::JoinConfig& cfg) {
    cfg.framework.stream = RecoveryFixture::streamedConfig(2, dir);
  });
  ASSERT_FALSE(run.pairs.empty());

  // Every rank wrote one ingest manifest and no per-chunk blob; the logged
  // chunks of all ranks cover each input file exactly once.
  const std::string paths[2] = {"r.wkt", "s.wkt"};
  std::uint64_t loggedBytes[2] = {0, 0};
  for (int q = 0; q < 4; ++q) {
    const std::string prefix = mr::rankPrefix(dir, q) + "/";
    EXPECT_TRUE(fx.volume->exists(prefix + "ing.manifest"));
    const mr::IngestLog log = mr::readIngestLog(*fx.volume, dir, q);
    for (int layer = 0; layer < 2; ++layer) {
      EXPECT_GE(log.chunks[layer].size(), 2u) << "streaming must log several chunks";
      for (std::size_t i = 0; i < log.chunks[layer].size() + 2; ++i) {
        const std::string blob = prefix + "ing." + mr::layerTag(layer) + "." + std::to_string(i);
        EXPECT_FALSE(fx.volume->exists(blob)) << blob;
      }
      for (const mr::LoggedChunk& c : log.chunks[layer]) loggedBytes[layer] += c.bytes;
    }
  }
  for (int layer = 0; layer < 2; ++layer) {
    EXPECT_EQ(loggedBytes[layer], fx.volume->lookup(paths[layer])->data->size());
  }
}

TEST(Checkpoint, SealScanCacheSkipsRevalidation) {
  auto volume = lustreVolume(2);
  const mg::GeometryBatch batch = mixedBatch();

  mm::Runtime::run(1, [&](mm::Comm& comm) {
    mc::PhaseBreakdown phases;
    mr::CheckpointConfig cfg;
    cfg.everyRounds = 1;
    cfg.dir = "__ck_cache";
    cfg.tearEpochSeal = 3;  // the newest epoch is rejected on every scan
    mr::CheckpointCoordinator ckpt(comm, *volume, cfg, &phases);
    const std::vector<int> owner(8, 0);
    for (std::uint64_t e = 1; e <= 3; ++e) {
      ckpt.noteRound(0, batch);
      ASSERT_TRUE(ckpt.maybeCheckpoint(e, owner));
    }

    mr::SealScanCache cache;
    std::uint64_t firstBytes = 0, secondBytes = 0;
    const auto first = mr::findLastSealedEpoch(*volume, cfg.dir, 1, 3, &firstBytes, &cache);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->epoch, 2u);
    EXPECT_GT(firstBytes, 0u);
    ASSERT_TRUE(cache.validated.has_value());
    EXPECT_EQ(cache.rejected, std::vector<std::uint64_t>{3});

    // A cascading pass re-runs the scan: the cache answers both the
    // rejected epoch 3 and the validated epoch 2 with zero reads.
    const auto second = mr::findLastSealedEpoch(*volume, cfg.dir, 1, 3, &secondBytes, &cache);
    ASSERT_TRUE(second.has_value());
    EXPECT_EQ(second->epoch, 2u);
    EXPECT_EQ(secondBytes, 0u) << "cached scan must not re-read any seal or manifest";
  });
}
