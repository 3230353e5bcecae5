// Figure 19: execution-time breakdown for spatial join (#3 Roads, #1
// Cemetery) as the process count grows.
//
// Paper expectation: unlike Figure 18, the communication cost dominates —
// Roads has very many small geometries, so serialization + all-to-all
// exchange outweighs the per-cell join work.

#include "common.hpp"

int main() {
  using namespace mvio;

  bench::printHeader("Figure 19 — Join breakdown vs processes (Roads x Cemetery)",
                     "communication dominates the execution time",
                     "synthetic roads (40000 small polygons) x cemetery (2000), 1024 cells");

  // Many tiny geometries spread thin: heavy exchange, cheap refine.
  osm::SynthSpec roads = osm::datasetSpec(osm::DatasetId::kRoads, 31);
  roads.space.world = geom::Envelope(0, 0, 200, 200);
  roads.space.clusters = 48;
  roads.space.clusterStddev = 20;
  roads.minVertices = 4;
  roads.maxVertices = 16;
  roads.maxRadius = 0.3;
  osm::SynthSpec cemetery = osm::datasetSpec(osm::DatasetId::kCemetery, 32);
  cemetery.space.world = roads.space.world;
  cemetery.space.clusters = 48;
  cemetery.space.clusterStddev = 20;
  cemetery.maxRadius = 0.4;

  auto volume = bench::rogerVolume(8, 1.0);
  volume->createOrReplace(
      "roads.wkt", std::make_shared<pfs::MemoryBackingStore>(
                       osm::generateWktText(osm::RecordGenerator(roads), 40000)));
  volume->createOrReplace(
      "cemetery.wkt", std::make_shared<pfs::MemoryBackingStore>(
                          osm::generateWktText(osm::RecordGenerator(cemetery), 2000)));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  util::TextTable table({"procs", "read+parse", "partition", "comm", "join", "total", "pairs"});
  for (const int procs : {20, 40, 80, 160}) {
    core::PhaseBreakdown ph;
    std::uint64_t pairs = 0;
    mpi::Runtime::run(procs, sim::MachineModel::roger(std::max(procs / 20, 1)), [&](mpi::Comm& comm) {
      core::JoinConfig cfg;
      cfg.framework.gridCells = 1024;
      core::DatasetHandle r{"roads.wkt", wkt};
      core::DatasetHandle s{"cemetery.wkt", wkt};
      const auto stats = core::spatialJoin(comm, *volume, r, s, cfg);
      const auto reduced = stats.phases.maxAcross(comm);
      if (comm.rank() == 0) {
        ph = reduced;
        pairs = stats.globalPairs;
      }
    });
    table.addRow({std::to_string(procs), util::formatSeconds(ph.read + ph.parse),
                  util::formatSeconds(ph.partition), util::formatSeconds(ph.comm),
                  util::formatSeconds(ph.compute), util::formatSeconds(ph.total()),
                  std::to_string(pairs)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
