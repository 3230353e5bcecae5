// Figure 17: spatial-join execution-time breakdown (partition /
// communication / join) for different grid-cell counts at a fixed 80 MPI
// processes. Join of Lakes x Cemetery.
//
// Paper expectation: the overall execution time decreases as the number
// of grid cells grows (finer tasks, better load balance), with the
// cell-to-process mapping shifting load between communication and join.
// The total is less than the sum because each phase reports its maximum
// across processes.

#include "common.hpp"

int main() {
  using namespace mvio;
  constexpr int kProcs = 80;

  bench::printHeader("Figure 17 — Join breakdown vs grid cells (Lakes x Cemetery, 80 procs)",
                     "total decreases as grid cells increase; phases shift with the mapping",
                     "synthetic lakes (12000 dense polygons) x cemetery (6000), ROGER model");

  // Shared world so the layers overlap heavily.
  osm::SynthSpec lakes = osm::datasetSpec(osm::DatasetId::kLakes, 5);
  lakes.space.world = geom::Envelope(0, 0, 100, 100);
  lakes.space.clusters = 6;
  lakes.space.clusterStddev = 3;
  lakes.minVertices = 48;
  lakes.maxVertices = 768;
  lakes.maxRadius = 1.2;
  osm::SynthSpec cemetery = osm::datasetSpec(osm::DatasetId::kCemetery, 6);
  cemetery.space.world = lakes.space.world;
  cemetery.space.clusters = 6;
  cemetery.space.clusterStddev = 3;
  cemetery.maxRadius = 1.0;

  auto volume = bench::rogerVolume(kProcs / 20, 1.0);
  volume->createOrReplace(
      "lakes.wkt", std::make_shared<pfs::MemoryBackingStore>(
                       osm::generateWktText(osm::RecordGenerator(lakes), 12000)));
  volume->createOrReplace(
      "cemetery.wkt", std::make_shared<pfs::MemoryBackingStore>(
                          osm::generateWktText(osm::RecordGenerator(cemetery), 6000)));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  util::TextTable table({"cells", "partition", "comm", "join", "total", "pairs"});
  for (const int cells : {64, 256, 1024, 4096}) {
    core::PhaseBreakdown maxPhases;
    std::uint64_t pairs = 0;
    mpi::Runtime::run(kProcs, sim::MachineModel::roger(kProcs / 20), [&](mpi::Comm& comm) {
      core::JoinConfig cfg;
      cfg.framework.gridCells = cells;
      core::DatasetHandle r{"lakes.wkt", wkt};
      core::DatasetHandle s{"cemetery.wkt", wkt};
      const auto stats = core::spatialJoin(comm, *volume, r, s, cfg);
      const auto reduced = stats.phases.maxAcross(comm);
      if (comm.rank() == 0) {
        maxPhases = reduced;
        pairs = stats.globalPairs;
      }
    });
    table.addRow({std::to_string(cells), util::formatSeconds(maxPhases.partition),
                  util::formatSeconds(maxPhases.comm), util::formatSeconds(maxPhases.compute),
                  util::formatSeconds(maxPhases.total()), std::to_string(pairs)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
