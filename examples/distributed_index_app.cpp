// Distributed spatial indexing application (the paper's Figure 20
// workload as a library feature): build per-cell R-trees over a road
// network across ranks, then answer interactive-style rectangle queries
// against the distributed index.
//
// Build & run:  ./build/examples/distributed_index_app [--procs=80]

#include <cstdio>

#include "core/vector_io.hpp"
#include "osm/datasets.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace mvio;

  util::Cli cli("Distributed spatial index over a road network");
  cli.flag("procs", "80", "number of MPI ranks");
  cli.flag("edges", "40000", "road polylines to index");
  cli.flag("cells", "2048", "grid cells (as in the paper's Figure 20)");
  cli.flag("queries", "8", "random rectangle queries to answer");
  if (!cli.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(cli.integer("procs"));

  auto volume = std::make_shared<pfs::Volume>(std::make_shared<pfs::GpfsModel>(pfs::GpfsParams{}));
  osm::SynthSpec spec = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 19);
  spec.space.world = geom::Envelope(0, 0, 200, 200);
  volume->createOrReplace("road_network.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(osm::generateWktText(
                              osm::RecordGenerator(spec), static_cast<std::uint64_t>(cli.integer("edges")))));

  // The same query batch everywhere (each rank answers from its cells;
  // counts are reduced).
  std::vector<geom::Envelope> queries;
  util::Rng rng(2024);
  for (int q = 0; q < cli.integer("queries"); ++q) {
    const double x = rng.uniform(0, 180), y = rng.uniform(0, 180);
    queries.emplace_back(x, y, x + rng.uniform(2, 15), y + rng.uniform(2, 15));
  }

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  mpi::Runtime::run(procs, sim::MachineModel::roger(std::max(procs / 20, 1)), [&](mpi::Comm& comm) {
    core::IndexingConfig cfg;
    cfg.framework.gridCells = static_cast<int>(cli.integer("cells"));
    core::DatasetHandle data{"road_network.wkt", wkt};
    core::IndexingStats stats;
    const core::DistributedIndex index = core::buildDistributedIndex(comm, *volume, data, cfg, &stats);
    const core::PhaseBreakdown ph = stats.phases.maxAcross(comm);

    // Answer the batch against the distributed index.
    std::vector<std::uint64_t> local(queries.size(), 0);
    for (std::size_t q = 0; q < queries.size(); ++q) local[q] = index.queryCount(queries[q]);
    std::vector<std::uint64_t> global(queries.size(), 0);
    comm.allreduce(local.data(), global.data(), static_cast<int>(local.size()), mpi::Datatype::uint64(),
                   mpi::Op::sum());

    if (comm.rank() == 0) {
      std::printf("indexed %llu geometries (with cell replication) into %llu owned cells/rank avg\n",
                  static_cast<unsigned long long>(stats.globalGeometries),
                  static_cast<unsigned long long>(stats.cellsOwned));
      std::printf("build breakdown: read+parse %s, grid %s, comm %s, rtree build %s\n",
                  util::formatSeconds(ph.read + ph.parse).c_str(),
                  util::formatSeconds(ph.partition).c_str(), util::formatSeconds(ph.comm).c_str(),
                  util::formatSeconds(ph.compute).c_str());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        std::printf("query %zu [%.0f..%.0f]x[%.0f..%.0f] -> %llu road segments\n", q,
                    queries[q].minX(), queries[q].maxX(), queries[q].minY(), queries[q].maxY(),
                    static_cast<unsigned long long>(global[q]));
      }
    }
  });
  return 0;
}
