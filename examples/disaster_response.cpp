// Disaster-response overlay — the scenario the paper's introduction
// motivates: "in forest fire or hurricane simulation ... multiple layers
// of spatial data needs to be joined and overlaid to predict the affected
// areas and rescue shelters."
//
// A hurricane track is modelled as a sequence of impact circles; the
// batch-range-query pipeline finds, for every impact zone, how many road
// segments and how many shelter candidates (buildings) fall inside it —
// in one distributed pass per layer.
//
// Build & run:  ./build/examples/disaster_response [--procs=40]

#include <cstdio>

#include "core/vector_io.hpp"
#include "osm/datasets.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace mvio;

  util::Cli cli("Hurricane impact overlay (roads + shelters vs track)");
  cli.flag("procs", "40", "number of MPI ranks");
  cli.flag("roads", "20000", "road polylines");
  cli.flag("buildings", "8000", "building polygons (shelter candidates)");
  if (!cli.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(cli.integer("procs"));

  const geom::Envelope region(0, 0, 100, 100);

  // Layers: a road network and candidate shelter buildings.
  auto volume = std::make_shared<pfs::Volume>(std::make_shared<pfs::GpfsModel>(pfs::GpfsParams{}));
  osm::SynthSpec roads = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 13);
  roads.space.world = region;
  roads.space.clusters = 14;
  osm::SynthSpec buildings = osm::datasetSpec(osm::DatasetId::kCemetery, 14);  // small polygons
  buildings.space.world = region;
  buildings.space.clusters = 14;
  volume->createOrReplace("roads.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(osm::generateWktText(
                              osm::RecordGenerator(roads), static_cast<std::uint64_t>(cli.integer("roads")))));
  volume->createOrReplace("buildings.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(
                              osm::generateWktText(osm::RecordGenerator(buildings),
                                                   static_cast<std::uint64_t>(cli.integer("buildings")))));

  // Hurricane track: impact boxes along a diagonal path, widening as the
  // storm makes landfall.
  std::vector<geom::Envelope> track;
  for (int step = 0; step < 10; ++step) {
    const double cx = 10.0 + step * 8.5;
    const double cy = 15.0 + step * 7.0;
    const double radius = 3.0 + step * 0.8;
    track.emplace_back(cx - radius, cy - radius, cx + radius, cy + radius);
  }

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  mpi::Runtime::run(procs, sim::MachineModel::roger(std::max(procs / 20, 1)), [&](mpi::Comm& comm) {
    core::RangeQueryConfig cfg;
    cfg.framework.gridCells = 1024;

    core::DatasetHandle roadsHandle{"roads.wkt", wkt};
    core::RangeQueryStats roadStats;
    const auto roadHits = core::batchRangeQuery(comm, *volume, roadsHandle, track, cfg, &roadStats);

    core::DatasetHandle bldgHandle{"buildings.wkt", wkt};
    core::RangeQueryStats bldgStats;
    const auto shelterHits = core::batchRangeQuery(comm, *volume, bldgHandle, track, cfg, &bldgStats);

    if (comm.rank() == 0) {
      std::printf("hurricane track: %zu impact zones, %d ranks\n\n", track.size(), comm.size());
      std::printf("%-6s %-28s %-16s %-16s\n", "step", "impact zone", "roads affected", "shelters in zone");
      for (std::size_t i = 0; i < track.size(); ++i) {
        char zone[64];
        std::snprintf(zone, sizeof zone, "[%.0f..%.0f]x[%.0f..%.0f]", track[i].minX(), track[i].maxX(),
                      track[i].minY(), track[i].maxY());
        std::printf("%-6zu %-28s %-16llu %-16llu\n", i, zone,
                    static_cast<unsigned long long>(roadHits[i]),
                    static_cast<unsigned long long>(shelterHits[i]));
      }
      const core::PhaseBreakdown ph = roadStats.phases;
      std::printf("\nroad-layer pipeline (rank-0 view): read %s, parse %s, comm %s, refine %s\n",
                  util::formatSeconds(ph.read).c_str(), util::formatSeconds(ph.parse).c_str(),
                  util::formatSeconds(ph.comm).c_str(), util::formatSeconds(ph.compute).c_str());
    }
  });
  return 0;
}
