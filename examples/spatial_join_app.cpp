// Spatial join application: "find all pairs of lakes and cemeteries that
// intersect" — the paper's §2 example query, end to end.
//
// Demonstrates the full filter-and-refine framework: partitioned read of
// two WKT layers, global grid from MPI_UNION, geometry exchange, per-cell
// R-tree filter, exact refine with reference-point duplicate avoidance,
// and the per-phase breakdown the paper plots in §5.2.
//
// Build & run:  ./build/examples/spatial_join_app [--procs=40] [--cells=1024]

#include <cstdio>

#include "core/vector_io.hpp"
#include "osm/datasets.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace mvio;

  util::Cli cli("Distributed spatial join (lakes x cemeteries)");
  cli.flag("procs", "40", "number of MPI ranks");
  cli.flag("cells", "1024", "grid cells (unit tasks)");
  cli.flag("lakes", "6000", "lake polygons");
  cli.flag("cemeteries", "3000", "cemetery polygons");
  if (!cli.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(cli.integer("procs"));

  // Two overlapping layers on a GPFS-like volume.
  auto volume = std::make_shared<pfs::Volume>(std::make_shared<pfs::GpfsModel>(pfs::GpfsParams{}));
  osm::SynthSpec lakes = osm::datasetSpec(osm::DatasetId::kLakes, 7);
  lakes.space.world = geom::Envelope(0, 0, 80, 80);
  lakes.space.clusters = 10;
  lakes.maxRadius = 2.5;
  osm::SynthSpec cems = osm::datasetSpec(osm::DatasetId::kCemetery, 8);
  cems.space.world = lakes.space.world;
  cems.space.clusters = 10;
  cems.maxRadius = 1.5;
  volume->createOrReplace("lakes.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(osm::generateWktText(
                              osm::RecordGenerator(lakes), static_cast<std::uint64_t>(cli.integer("lakes")))));
  volume->createOrReplace("cemeteries.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(
                              osm::generateWktText(osm::RecordGenerator(cems),
                                                   static_cast<std::uint64_t>(cli.integer("cemeteries")))));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  mpi::Runtime::run(procs, sim::MachineModel::roger(std::max(procs / 20, 1)), [&](mpi::Comm& comm) {
    core::JoinConfig cfg;
    cfg.framework.gridCells = static_cast<int>(cli.integer("cells"));
    cfg.predicate = core::JoinPredicate::kIntersects;
    core::DatasetHandle r{"lakes.wkt", wkt};
    core::DatasetHandle s{"cemeteries.wkt", wkt};

    const core::JoinStats stats = core::spatialJoin(comm, *volume, r, s, cfg);
    const core::PhaseBreakdown ph = stats.phases.maxAcross(comm);

    if (comm.rank() == 0) {
      std::printf("grid            : %dx%d cells over [%.1f..%.1f]x[%.1f..%.1f]\n",
                  stats.grid.cellsX(), stats.grid.cellsY(), stats.grid.bounds().minX(),
                  stats.grid.bounds().maxX(), stats.grid.bounds().minY(), stats.grid.bounds().maxY());
      std::printf("candidate pairs : %llu (filter)\n",
                  static_cast<unsigned long long>(stats.candidatePairs));
      std::printf("result pairs    : %llu (refine)\n",
                  static_cast<unsigned long long>(stats.globalPairs));
      std::printf("phase breakdown (max across %d ranks):\n", comm.size());
      std::printf("  read    %s\n", util::formatSeconds(ph.read).c_str());
      std::printf("  parse   %s\n", util::formatSeconds(ph.parse).c_str());
      std::printf("  grid    %s\n", util::formatSeconds(ph.partition).c_str());
      std::printf("  comm    %s\n", util::formatSeconds(ph.comm).c_str());
      std::printf("  join    %s\n", util::formatSeconds(ph.compute).c_str());
      std::printf("  total   %s\n", util::formatSeconds(ph.total()).c_str());
    }
  });
  return 0;
}
