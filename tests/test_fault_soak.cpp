// Randomized fault-schedule soak harness (DESIGN.md §11): a seeded
// generator draws long-running elasticity schedules — k ∈ {1..3} dead
// ranks per run, kill points at round boundaries, cascading deaths
// during recovery passes, later-boundary second waves, torn epoch
// seals, checkpoint GC + epoch compaction, skew-aware rebalancing, and
// 1- or 4-thread worker pools — and every schedule must reproduce the
// failure-free run bit-for-bit: identical sorted join pairs, identical
// coverage-raster bytes, identical index query counts.
//
// Bounded by default so the tier-1 lane stays fast; the CI soak lane
// (scripts/ci.sh) widens it:
//   MVIO_SOAK_SCHEDULES  schedules to draw (default 5)
//   MVIO_SOAK_SEED       generator seed (default 20260808)
// On failure the seed and the offending schedule are printed, so any
// counterexample replays deterministically.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/spatial_join.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "sim/machine.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace ms = mvio::sim;

namespace {

constexpr int kRanks = 4;
constexpr int kGridCells = 36;

std::uint64_t envU64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

/// Two-layer dataset shared by every run of the soak (same synthesis as
/// the deterministic recovery fixture).
struct SoakFixture {
  std::shared_ptr<mp::Volume> volume;
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");

  SoakFixture() {
    mp::LustreParams params;
    params.nodes = 8;
    volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 61);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    volume->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specR), 1500)));
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 62);
    specS.space.world = specR.space.world;
    volume->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(
                                mo::generateWktText(mo::RecordGenerator(specS), 800)));
  }
};

/// One drawn elasticity schedule plus the knobs it composes with.
struct SoakSchedule {
  std::vector<ms::FailureEvent> events;
  std::uint64_t checkpointEvery = 2;
  std::uint64_t tearEpoch = 0;    ///< 0 = no torn seal
  std::uint64_t compactEvery = 0; ///< 0 = compaction off
  bool rebalance = false;
  int threads = 1;
};

std::string describe(const SoakSchedule& s) {
  std::ostringstream os;
  os << "kills=[";
  for (std::size_t i = 0; i < s.events.size(); ++i) {
    if (i != 0) os << ", ";
    os << "{rank " << s.events[i].rank << " after round " << s.events[i].afterRound
       << " pass " << s.events[i].duringRecoveryPass << "}";
  }
  os << "] checkpointEvery=" << s.checkpointEvery << " tearEpoch=" << s.tearEpoch
     << " compactEvery=" << s.compactEvery << " rebalance=" << s.rebalance
     << " threads=" << s.threads;
  return os.str();
}

/// Draw one schedule. Extra dead ranks beyond the first die in the same
/// wave, during a recovery pass (cascading), or at a later round
/// boundary — all three land in the cascade loop's detection allgathers.
SoakSchedule drawSchedule(std::mt19937_64& rng, std::uint64_t maxKillRound) {
  const auto pick = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return lo + rng() % (hi - lo + 1);
  };
  SoakSchedule s;
  s.checkpointEvery = pick(1, 3);
  const int k = static_cast<int>(pick(1, 3));
  std::array<int, kRanks> ranks = {0, 1, 2, 3};
  std::shuffle(ranks.begin(), ranks.end(), rng);
  const std::uint64_t firstKill = pick(1, maxKillRound);
  s.events.push_back({ranks[0], firstKill, 0});
  int cascadePass = 0;
  for (int i = 1; i < k; ++i) {
    const std::uint64_t mode = pick(0, 2);
    if (mode == 0) {
      s.events.push_back({ranks[static_cast<std::size_t>(i)], firstKill, 0});
    } else if (mode == 1 || firstKill == maxKillRound) {
      s.events.push_back({ranks[static_cast<std::size_t>(i)], firstKill, ++cascadePass});
    } else {
      s.events.push_back(
          {ranks[static_cast<std::size_t>(i)], pick(firstKill + 1, maxKillRound), 0});
    }
  }
  // Tear the epoch sealed just before the first kill (when one exists) a
  // quarter of the time: recovery must fall back and replay further.
  const std::uint64_t sealedAtKill = firstKill / s.checkpointEvery;
  if (sealedAtKill >= 1 && pick(0, 3) == 0) s.tearEpoch = sealedAtKill;
  if (pick(0, 1) == 1) s.compactEvery = pick(1, 2);
  s.rebalance = pick(0, 1) == 1;
  s.threads = pick(0, 1) == 1 ? 4 : 1;
  return s;
}

void applySchedule(const SoakSchedule& s, mc::FrameworkConfig& fw, const std::string& ckptDir) {
  fw.gridCells = kGridCells;
  fw.stream.chunkBytes = 4 << 10;
  fw.stream.memoryBudget = 32 << 10;
  fw.stream.checkpointEveryRounds = s.checkpointEvery;
  fw.stream.checkpointDir = ckptDir;
  fw.stream.tearEpochSeal = s.tearEpoch;
  fw.stream.compaction.everyEpochs = s.compactEvery;
  fw.failSchedule = s.events;
  fw.rebalanceCells = s.rebalance;
  fw.threadsPerRank = s.threads;
}

/// Failure-free config used for the baselines (checkpointing on so its
/// overhead is part of the reference run too).
void applyBaseline(mc::FrameworkConfig& fw, const std::string& ckptDir) {
  fw.gridCells = kGridCells;
  fw.stream.chunkBytes = 4 << 10;
  fw.stream.memoryBudget = 32 << 10;
  fw.stream.checkpointEveryRounds = 2;
  fw.stream.checkpointDir = ckptDir;
}

struct JoinResult {
  std::vector<mc::JoinPair> pairs;  ///< survivors' pairs, sorted
  std::uint64_t rounds = 0;         ///< max PhaseBreakdown::rounds
  int died = 0;
};

JoinResult runJoin(SoakFixture& fx, const std::function<void(mc::FrameworkConfig&)>& tweak) {
  JoinResult run;
  std::mutex mu;
  mm::Runtime::run(kRanks, ms::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    tweak(cfg.framework);
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mu);
    run.pairs.insert(run.pairs.end(), local.begin(), local.end());
    run.rounds = std::max(run.rounds, stats.phases.rounds);
    if (stats.recovery.died) run.died += 1;
  });
  std::sort(run.pairs.begin(), run.pairs.end());
  return run;
}

struct OverlayResult {
  std::string raster;  ///< output file bytes
  int died = 0;
};

OverlayResult runOverlay(SoakFixture& fx, const std::string& out,
                         const std::function<void(mc::FrameworkConfig&)>& tweak) {
  OverlayResult run;
  std::mutex mu;
  mm::Runtime::run(kRanks, ms::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::OverlayConfig cfg;
    cfg.outputPath = out;
    tweak(cfg.framework);
    mc::DatasetHandle r{"r.wkt", fx.wkt};
    mc::DatasetHandle s{"s.wkt", fx.wkt};
    const auto stats = mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
    std::lock_guard<std::mutex> lock(mu);
    if (stats.recovery.died) run.died += 1;
  });
  const auto file = fx.volume->lookup(out);
  run.raster.assign(file->data->size(), '\0');
  file->data->read(0, run.raster.data(), run.raster.size());
  return run;
}

struct IndexResult {
  std::vector<std::uint64_t> counts;  ///< per-query hit counts, summed over survivors
  std::uint64_t rounds = 0;
  int died = 0;
};

IndexResult runIndex(SoakFixture& fx, const std::vector<mg::Envelope>& queries,
                     const std::function<void(mc::FrameworkConfig&)>& tweak) {
  IndexResult run;
  run.counts.assign(queries.size(), 0);
  std::mutex mu;
  mm::Runtime::run(kRanks, ms::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::IndexingConfig cfg;
    tweak(cfg.framework);
    mc::DatasetHandle data{"r.wkt", fx.wkt};
    mc::IndexingStats stats;
    const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
    std::lock_guard<std::mutex> lock(mu);
    run.rounds = std::max(run.rounds, stats.phases.rounds);
    if (stats.recovery.died) {
      run.died += 1;
      return;
    }
    for (std::size_t q = 0; q < queries.size(); ++q) {
      run.counts[q] += index.queryCount(queries[q]);
    }
  });
  return run;
}

}  // namespace

TEST(FaultSoak, RandomizedSchedulesStayBitIdentical) {
  const std::uint64_t schedules = envU64("MVIO_SOAK_SCHEDULES", 5);
  const std::uint64_t seed = envU64("MVIO_SOAK_SEED", 20260808);
  SoakFixture fx;
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {-5, -5, -1, -1}, {7, 3, 18, 9}};

  // Failure-free baselines: every randomized schedule must reproduce
  // these bit-for-bit.
  const JoinResult joinBase =
      runJoin(fx, [](mc::FrameworkConfig& fw) { applyBaseline(fw, "__soak_base_j"); });
  ASSERT_FALSE(joinBase.pairs.empty());
  ASSERT_EQ(joinBase.died, 0);
  const OverlayResult overlayBase = runOverlay(
      fx, "soak_cov_base.bin", [](mc::FrameworkConfig& fw) { applyBaseline(fw, "__soak_base_o"); });
  ASSERT_FALSE(overlayBase.raster.empty());
  const IndexResult indexBase = runIndex(
      fx, queries, [](mc::FrameworkConfig& fw) { applyBaseline(fw, "__soak_base_x"); });
  ASSERT_GT(indexBase.counts[1], 0u);

  // Kill rounds must land inside the data-round window of every task:
  // two-layer runs end with two termination rounds, the single-layer
  // index run with one.
  ASSERT_GT(joinBase.rounds, 3u);
  ASSERT_GT(indexBase.rounds, 2u);
  const std::uint64_t maxKill = std::min(joinBase.rounds - 2, indexBase.rounds - 1);

  std::mt19937_64 rng(seed);
  for (std::uint64_t i = 0; i < schedules; ++i) {
    const SoakSchedule sched = drawSchedule(rng, maxKill);
    SCOPED_TRACE("MVIO_SOAK_SEED=" + std::to_string(seed) + " schedule #" + std::to_string(i) +
                 ": " + describe(sched));
    const std::string tag = std::to_string(i);
    const int expectDead = static_cast<int>(sched.events.size());

    const JoinResult join = runJoin(fx, [&](mc::FrameworkConfig& fw) {
      applySchedule(sched, fw, "__soak" + tag + "_j");
    });
    EXPECT_EQ(join.died, expectDead);
    EXPECT_EQ(join.pairs, joinBase.pairs) << "join pairs diverged from the failure-free run";

    const OverlayResult overlay =
        runOverlay(fx, "soak_cov_" + tag + ".bin", [&](mc::FrameworkConfig& fw) {
          applySchedule(sched, fw, "__soak" + tag + "_o");
        });
    EXPECT_EQ(overlay.died, expectDead);
    EXPECT_EQ(overlay.raster, overlayBase.raster)
        << "coverage raster diverged from the failure-free run";

    const IndexResult index = runIndex(fx, queries, [&](mc::FrameworkConfig& fw) {
      applySchedule(sched, fw, "__soak" + tag + "_x");
    });
    EXPECT_EQ(index.died, expectDead);
    EXPECT_EQ(index.counts, indexBase.counts)
        << "index query counts diverged from the failure-free run";
  }
}
