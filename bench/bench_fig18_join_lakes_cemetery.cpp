// Figure 18: execution-time breakdown for spatial join (#2 Lakes, #1
// Cemetery) as the process count grows.
//
// Paper expectation: the join (refine) phase dominates the runtime and
// shrinks as processes are added.

#include "common.hpp"

int main() {
  using namespace mvio;

  bench::printHeader("Figure 18 — Join breakdown vs processes (Lakes x Cemetery)",
                     "join time dominates and decreases with more processes",
                     "synthetic lakes (10000, vertex-dense) x cemetery (6000), 1024 cells");

  // Vertex-heavy lakes make the exact-refine phase expensive (the paper's
  // join-dominated case).
  osm::SynthSpec lakes = osm::datasetSpec(osm::DatasetId::kLakes, 21);
  lakes.space.world = geom::Envelope(0, 0, 60, 60);
  lakes.space.clusters = 8;
  lakes.space.clusterStddev = 6;
  lakes.minVertices = 96;
  lakes.maxVertices = 2048;
  lakes.maxRadius = 2.5;
  osm::SynthSpec cemetery = osm::datasetSpec(osm::DatasetId::kCemetery, 22);
  cemetery.space.world = lakes.space.world;
  cemetery.space.clusters = 8;
  cemetery.space.clusterStddev = 6;
  cemetery.minVertices = 48;
  cemetery.maxRadius = 2.0;

  auto volume = bench::rogerVolume(8, 1.0);
  volume->createOrReplace(
      "lakes.wkt", std::make_shared<pfs::MemoryBackingStore>(
                       osm::generateWktText(osm::RecordGenerator(lakes), 10000)));
  volume->createOrReplace(
      "cemetery.wkt", std::make_shared<pfs::MemoryBackingStore>(
                          osm::generateWktText(osm::RecordGenerator(cemetery), 6000)));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  util::TextTable table({"procs", "read+parse", "partition", "comm", "join", "total", "pairs"});
  for (const int procs : {20, 40, 80, 160}) {
    core::PhaseBreakdown ph;
    std::uint64_t pairs = 0;
    mpi::Runtime::run(procs, sim::MachineModel::roger(std::max(procs / 20, 1)), [&](mpi::Comm& comm) {
      core::JoinConfig cfg;
      cfg.framework.gridCells = 1024;
      core::DatasetHandle r{"lakes.wkt", wkt};
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
