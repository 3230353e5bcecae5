#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <exception>

#include "osm/datasets.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mo = mvio::osm;
namespace mp = mvio::pfs;

namespace {

// Sizes: a job takes 0.1-0.25 s of host wall time on a 4-vCPU x86 virtual
// machine, so a 20 s run holds 80-250 jobs.
constexpr std::uint64_t kJoinPolygons = 10000;   // cemetery-like polygons (layer R)
constexpr std::uint64_t kJoinRoads = 20000;     // road lines (layer S)
constexpr double kJoinWorld = 1.6;              // uniform spread: dense enough to refine
constexpr int kJoinCells = 256;

constexpr std::uint64_t kIndexRecords = 20000;  // framed WKB road edges
constexpr double kIndexWorld = 40.0;
constexpr int kIndexCells = 1024;
constexpr std::uint64_t kIndexChunk = 24 << 10;    // tens of rounds per rank
constexpr std::uint64_t kIndexBudget = 128 << 10;  // forces spill + heavy cell-major reload on every seed
constexpr std::uint64_t kIndexCheckpointEvery = 4;
constexpr std::uint64_t kIndexCompactEvery = 2;
constexpr int kIndexQueries = 16;

constexpr std::uint64_t kOverlayPolygons = 54000;
constexpr std::uint64_t kOverlayRoads = 72000;
constexpr double kOverlayWorld = 20.0;
constexpr int kOverlayClusters = 3;         // a few tight clusters: skew
constexpr double kOverlayClusterStddev = 0.7;
constexpr int kOverlayCells = 256;
constexpr std::uint64_t kOverlayChunk = 48 << 10;
constexpr std::uint64_t kOverlayCheckpointEvery = 2;
constexpr int kOverlayVictim = 2;             // world rank that dies
constexpr std::uint64_t kOverlayKillRound = 4;  // data rounds completed before it dies
static_assert(kOverlayVictim != 0, "rank 0 reports the overlay totals");

constexpr WorkloadSpec kWorkloads[] = {
    {"join_wkt", Kind::kJoin, 2, 2},
    {"index_wkb_stream", Kind::kIndex, 4, 1},
    {"overlay_skew_recover", Kind::kOverlay, 4, 1},
};

mo::SynthSpec spread(mo::DatasetId id, std::uint64_t seed, double world) {
  mo::SynthSpec s = mo::datasetSpec(id, seed);
  s.space.world = mg::Envelope(0, 0, world, world);
  return s;
}

Layer makeLayer(std::string path, std::string bytes, const char* format) {
  Layer l;
  l.path = std::move(path);
  l.bytes = bytes.size();
  l.data = std::make_shared<mp::MemoryBackingStore>(std::move(bytes));
  l.format = mc::FormatRegistry::instance().get(format);
  return l;
}

std::string layerBytes(const Layer& l) {
  std::string out(l.bytes, '\0');
  l.data->read(0, out.data(), out.size());
  return out;
}

std::vector<mg::Geometry> parseGeometries(const Layer& l) {
  std::vector<mg::Geometry> out;
  const mc::WktParser parser;
  const mc::ParseStats st = parser.parseAll(layerBytes(l), [&](mg::Geometry&& g) { out.push_back(std::move(g)); });
  MVIO_CHECK(st.badRecords == 0, "generated WKT layer has malformed records");
  return out;
}

struct Usage {
  double user = 0, sys = 0;
  long switches = 0;
};

Usage usageNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime), ru.ru_nvcsw + ru.ru_nivcsw};
}

/// The failure-free uniform one-shot overlay of the same input: the
/// reference raster every overlay job must reproduce bit for bit.
void overlayOracle(const WorkloadSpec& w, Inputs& in) {
  auto volume = freshVolume(w, in);
  mc::OverlayConfig cfg;
  cfg.framework.gridCells = kOverlayCells;
  cfg.outputPath = "oracle.bin";
  const mc::DatasetHandle r = handleFor(w, in.layers[0]);
  const mc::DatasetHandle s = handleFor(w, in.layers[1]);
  mvio::mpi::Runtime::run(w.ranks, machineFor(w), [&](mvio::mpi::Comm& comm) {
    const mc::OverlayStats st = mc::gridCoverageOverlay(comm, *volume, r, &s, cfg);
    if (comm.rank() == 0) {
      in.oracle.totalR = st.totalR;
      in.oracle.totalS = st.totalS;
    }
  });
  in.oracle.raster = fileBytes(*volume, cfg.outputPath);
  MVIO_CHECK(!in.oracle.raster.empty() && in.oracle.totalR > 0, "overlay oracle produced no raster");
}

bool near(double a, double b) { return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b)); }

}  // namespace

double cpuNow() {
  const Usage u = usageNow();
  return u.user + u.sys;
}

std::string fileBytes(mp::Volume& volume, const std::string& name) {
  if (!volume.exists(name)) return {};
  const auto obj = volume.lookup(name);
  std::string out(obj->data->size(), '\0');
  obj->data->read(0, out.data(), out.size());
  return out;
}

const WorkloadSpec* findWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

mvio::sim::MachineModel machineFor(const WorkloadSpec& w) {
  // One rank per node, so every rank is its own Lustre client.
  mvio::sim::MachineModel m = mvio::sim::MachineModel::comet(w.ranks);
  m.ranksPerNode = 1;
  return m;
}

std::shared_ptr<mp::Volume> freshVolume(const WorkloadSpec& w, const Inputs& in) {
  mp::LustreParams p;
  p.nodes = w.ranks;
  auto volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(p));
  for (const Layer& l : in.layers) volume->create(l.path, l.data);
  return volume;
}

mc::FrameworkConfig frameworkFor(const WorkloadSpec& w) {
  mc::FrameworkConfig f;
  f.threadsPerRank = w.threadsPerRank;
  switch (w.kind) {
    case Kind::kJoin:
      f.gridCells = kJoinCells;
      break;
    case Kind::kIndex:
      f.gridCells = kIndexCells;
      f.stream.chunkBytes = kIndexChunk;
      f.stream.memoryBudget = kIndexBudget;
      f.stream.checkpointEveryRounds = kIndexCheckpointEvery;
      f.stream.compaction.everyEpochs = kIndexCompactEvery;
      break;
    case Kind::kOverlay:
      f.gridCells = kOverlayCells;
      f.partition.scheme = mc::PartitionScheme::kQuadtree;
      f.rebalanceCells = true;
      // The cost gate approves a move when gain > migrate x threshold; a
      // move never saves more records than it ships, so at the default
      // threshold (1.0) the gate always skips. 0 runs LPT whenever it gains.
      f.rebalanceThreshold = 0.0;
      f.stream.chunkBytes = kOverlayChunk;
      f.stream.checkpointEveryRounds = kOverlayCheckpointEvery;
      f.failSchedule = {mvio::sim::FailureEvent{kOverlayVictim, kOverlayKillRound, 0}};
      break;
  }
  return f;
}

mc::DatasetHandle handleFor(const WorkloadSpec& w, const Layer& layer) {
  mc::DatasetHandle h;
  h.path = layer.path;
  h.format = layer.format;
  h.partition.collectiveRead = w.kind == Kind::kOverlay;  // Level 1; the others read at Level 0
  return h;
}

Inputs setUp(const WorkloadSpec& w, std::uint64_t seed, bool withOracle) {
  Inputs in;
  const std::uint64_t base = seed * 8;
  switch (w.kind) {
    case Kind::kJoin: {
      mo::SynthSpec r = spread(mo::DatasetId::kCemetery, base + 1, kJoinWorld);
      mo::SynthSpec s = spread(mo::DatasetId::kRoadNetwork, base + 2, kJoinWorld);
      r.space.uniformFraction = s.space.uniformFraction = 1.0;
      in.layers.push_back(makeLayer("r.wkt", mo::generateWktText(mo::RecordGenerator(r), kJoinPolygons), "wkt"));
      in.layers.push_back(makeLayer("s.wkt", mo::generateWktText(mo::RecordGenerator(s), kJoinRoads), "wkt"));
      if (!withOracle) break;
      const std::vector<mg::Geometry> rg = parseGeometries(in.layers[0]);
      const std::vector<mg::Geometry> sg = parseGeometries(in.layers[1]);
      const double t0 = hostNow();
      in.oracle.pairs = mc::serialJoin(rg, sg, mc::JoinPredicate::kIntersects);
      in.serialJoinSeconds = hostNow() - t0;
      MVIO_CHECK(!in.oracle.pairs.empty(), "join oracle found no pairs");
      break;
    }
    case Kind::kIndex: {
      // Uniform spread: the spill/reload volume depends on how cells fill
      // against the budget, which clustered input would make seed-dependent.
      mo::SynthSpec spec = spread(mo::DatasetId::kRoadNetwork, base + 3, kIndexWorld);
      spec.space.uniformFraction = 1.0;
      in.layers.push_back(makeLayer("edges.wkb", mo::generateWkbText(mo::RecordGenerator(spec), kIndexRecords), "wkb"));
      mvio::util::Rng rng(seed ^ 0x5eedbeefULL);
      for (int q = 0; q < kIndexQueries; ++q) {
        const double x = rng.uniform(0, kIndexWorld - 4), y = rng.uniform(0, kIndexWorld - 4);
        in.oracle.queries.emplace_back(x, y, x + rng.uniform(0.5, 4), y + rng.uniform(0.5, 4));
      }
      if (!withOracle) break;
      mg::GeometryBatch all;
      const mc::ParseStats st = in.layers[0].format->parseChunk(layerBytes(in.layers[0]), all, nullptr);
      MVIO_CHECK(st.badRecords == 0 && st.records == kIndexRecords, "generated WKB layer does not decode");
      // Same grid rule as the pipeline: squarish over the global bounds.
      const mc::GridSpec grid = mc::GridSpec::squarish(all.bounds(), kIndexCells);
      std::vector<int> cells;
      for (std::size_t i = 0; i < all.size(); ++i) {
        cells.clear();
        grid.overlappingCells(all.envelope(i), cells);
        in.oracle.indexed += cells.size();
      }
      for (const mg::Envelope& box : in.oracle.queries) {
        std::uint64_t n = 0;
        for (std::size_t i = 0; i < all.size(); ++i) n += mg::recordIntersectsBox(all, i, box) ? 1 : 0;
        in.oracle.counts.push_back(n);
      }
      break;
    }
    case Kind::kOverlay: {
      mo::SynthSpec r = spread(mo::DatasetId::kCemetery, base + 5, kOverlayWorld);
      mo::SynthSpec s = spread(mo::DatasetId::kRoadNetwork, base + 6, kOverlayWorld);
      for (mo::SynthSpec* spec : {&r, &s}) {
        spec->space.clusters = kOverlayClusters;
        spec->space.clusterStddev = kOverlayClusterStddev;
        spec->space.uniformFraction = 0.02;
      }
      in.layers.push_back(makeLayer("r.wkt", mo::generateWktText(mo::RecordGenerator(r), kOverlayPolygons), "wkt"));
      in.layers.push_back(makeLayer("s.wkt", mo::generateWktText(mo::RecordGenerator(s), kOverlayRoads), "wkt"));
      if (withOracle) overlayOracle(w, in);
      break;
    }
  }
  for (const Layer& l : in.layers) in.inputBytes += l.bytes;
  return in;
}

std::string checkPairs(std::vector<mc::JoinPair> pairs, const Oracle& o) {
  std::sort(pairs.begin(), pairs.end());
  if (pairs == o.pairs) return {};
  return "join pairs differ from serialJoin: " + std::to_string(pairs.size()) + " vs " +
         std::to_string(o.pairs.size());
}

std::string checkRaster(const std::string& raster, const Oracle& o) {
  if (raster == o.raster) return {};
  return "coverage raster differs from the failure-free uniform one-shot raster (" +
         std::to_string(raster.size()) + " vs " + std::to_string(o.raster.size()) + " bytes)";
}

std::string checkCounts(const std::vector<std::uint64_t>& counts, const Oracle& o) {
  for (std::size_t q = 0; q < o.counts.size(); ++q) {
    if (q >= counts.size() || counts[q] != o.counts[q]) {
      return "query " + std::to_string(q) + " count " +
             (q < counts.size() ? std::to_string(counts[q]) : std::string("missing")) +
             " vs brute force " + std::to_string(o.counts[q]);
    }
  }
  return {};
}

double JobOut::maxPhase(double mc::PhaseBreakdown::*field) const {
  double m = 0;
  for (const RankOut& r : ranks) m = std::max(m, r.phases.*field);
  return m;
}

double JobOut::makespan() const {
  double m = 0;
  for (const RankOut& r : ranks) m = std::max(m, r.clockEnd);
  return m;
}

double JobOut::ingestSeconds() const {
  double m = 0;
  for (const RankOut& r : ranks) m = std::max(m, r.phases.read + r.phases.parse);
  return m;
}

JobOut runJob(const WorkloadSpec& w, const Inputs& in) {
  JobOut out;
  out.ranks.resize(static_cast<std::size_t>(w.ranks));
  std::vector<std::vector<mc::JoinPair>> pairs(static_cast<std::size_t>(w.ranks));
  std::vector<std::uint64_t> counts;
  std::uint64_t indexed = 0;
  double totalR = 0, totalS = 0;
  std::string raster;

  const Usage u0 = usageNow();
  const double t0 = hostNow();
  try {
    auto volume = freshVolume(w, in);
    const mc::FrameworkConfig fw = frameworkFor(w);
    const mc::DatasetHandle r = handleFor(w, in.layers[0]);
    const mc::DatasetHandle s = handleFor(w, in.layers.back());
    mvio::mpi::Runtime::run(w.ranks, machineFor(w), [&](mvio::mpi::Comm& comm) {
      RankOut& me = out.ranks[static_cast<std::size_t>(comm.rank())];
      switch (w.kind) {
        case Kind::kJoin: {
          mc::JoinConfig cfg;
          cfg.framework = fw;
          const mc::JoinStats st =
              mc::spatialJoin(comm, *volume, r, s, cfg, &pairs[static_cast<std::size_t>(comm.rank())]);
          me.phases = st.phases;
          me.candidatePairs = st.candidatePairs;
          me.globalPairs = st.globalPairs;
          break;
        }
        case Kind::kIndex: {
          mc::IndexingConfig cfg;
          cfg.framework = fw;
          mc::IndexingStats st;
          const mc::DistributedIndex index = mc::buildDistributedIndex(comm, *volume, r, cfg, &st);
          std::vector<std::uint64_t> local(in.oracle.queries.size()), global(local.size());
          for (std::size_t q = 0; q < local.size(); ++q) local[q] = index.queryCount(in.oracle.queries[q]);
          comm.allreduce(local.data(), global.data(), static_cast<int>(local.size()),
                         mvio::mpi::Datatype::uint64(), mvio::mpi::Op::sum());
          me.phases = st.phases;
          me.spill = st.spill;
          me.refinePeakBytes = st.refinePeakBytes;
          if (comm.rank() == 0) {
            counts = global;
            indexed = st.globalGeometries;
          }
          break;
        }
        case Kind::kOverlay: {
          mc::OverlayConfig cfg;
          cfg.framework = fw;
          cfg.outputPath = "coverage.bin";
          const mc::OverlayStats st = mc::gridCoverageOverlay(comm, *volume, r, &s, cfg);
          me.phases = st.phases;
          me.died = st.recovery.died;
          me.recovered = st.recovery.recovered;
          me.restoredRecords = st.recovery.restoredRecords;
          me.replayedRecords = st.recovery.replayedRecords;
          me.imbalance = st.balance.imbalance;
          me.cellsMoved = st.balance.cellsMoved;
          me.rebalanceSkipped = st.balance.skipped;
          me.costGated = st.balance.costGated;
          if (comm.rank() == 0) {  // rank 0 survives: the victim is another rank
            totalR = st.totalR;
            totalS = st.totalS;
          }
          break;
        }
      }
      me.clockEnd = comm.clock().now();
    });
    if (w.kind == Kind::kOverlay) raster = fileBytes(*volume, "coverage.bin");
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  out.wallSeconds = hostNow() - t0;
  const Usage u1 = usageNow();
  out.cpuSeconds = (u1.user - u0.user) + (u1.sys - u0.sys);
  out.sysSeconds = u1.sys - u0.sys;
  out.contextSwitches = u1.switches - u0.switches;
  if (!out.ok()) return out;

  switch (w.kind) {
    case Kind::kJoin: {
      std::vector<mc::JoinPair> all;
      for (auto& p : pairs) all.insert(all.end(), p.begin(), p.end());
      out.error = checkPairs(std::move(all), in.oracle);
      if (out.ok() && out.ranks[0].globalPairs != in.oracle.pairs.size()) out.error = "globalPairs disagrees with the pair list";
      break;
    }
    case Kind::kIndex:
      out.error = checkCounts(counts, in.oracle);
      if (out.ok() && indexed != in.oracle.indexed) {
        out.error = "indexed " + std::to_string(indexed) + " geometries, brute force says " +
                    std::to_string(in.oracle.indexed);
      }
      break;
    case Kind::kOverlay: {
      int died = 0, recovered = 0;
      for (const RankOut& r : out.ranks) {
        died += r.died ? 1 : 0;
        recovered += r.recovered ? 1 : 0;
      }
      out.error = checkRaster(raster, in.oracle);
      if (out.ok() && (!near(totalR, in.oracle.totalR) || !near(totalS, in.oracle.totalS))) {
        out.error = "layer totals differ from the failure-free run";
      }
      if (out.ok() && (died != 1 || recovered != w.ranks - 1)) {
        out.error = "expected one injected death and " + std::to_string(w.ranks - 1) +
                    " recovered survivors, saw " + std::to_string(died) + " and " + std::to_string(recovered);
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
