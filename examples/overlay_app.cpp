// Grid-coverage overlay application — the Figure 4 workflow end to end:
// two layers are partitioned, exchanged, clipped per grid cell, and the
// per-cell coverage raster is written to ONE shared file in row-major
// order through a strided collective write, "same as if produced
// sequentially". The app then reads the file back sequentially and
// renders an ASCII heat map of layer-R coverage.
//
// Build & run:  ./build/examples/overlay_app [--procs=40]

#include <cstdio>

#include "core/vector_io.hpp"
#include "osm/datasets.hpp"
#include "util/cli.hpp"
#include "util/format.hpp"

int main(int argc, char** argv) {
  using namespace mvio;

  util::Cli cli("Grid coverage overlay with row-major collective output");
  cli.flag("procs", "40", "number of MPI ranks");
  cli.flag("lakes", "5000", "lake polygons");
  cli.flag("roads", "8000", "road polylines");
  cli.flag("grid", "24", "cells per axis of the output raster");
  if (!cli.parse(argc, argv)) return 0;
  const int procs = static_cast<int>(cli.integer("procs"));
  const int gridSide = static_cast<int>(cli.integer("grid"));

  auto volume = std::make_shared<pfs::Volume>(std::make_shared<pfs::LustreModel>(pfs::LustreParams{}));
  osm::SynthSpec lakes = osm::datasetSpec(osm::DatasetId::kLakes, 33);
  lakes.space.world = geom::Envelope(0, 0, 60, 60);
  lakes.space.clusters = 7;
  lakes.maxRadius = 2.0;
  osm::SynthSpec roads = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 34);
  roads.space.world = lakes.space.world;
  volume->createOrReplace("lakes.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(osm::generateWktText(
                              osm::RecordGenerator(lakes), static_cast<std::uint64_t>(cli.integer("lakes")))));
  volume->createOrReplace("roads.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(osm::generateWktText(
                              osm::RecordGenerator(roads), static_cast<std::uint64_t>(cli.integer("roads")))));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  core::GridSpec grid;
  mpi::Runtime::run(procs, sim::MachineModel::comet(std::max((procs + 15) / 16, 1)), [&](mpi::Comm& comm) {
    core::OverlayConfig cfg;
    cfg.framework.gridCells = gridSide * gridSide;
    cfg.outputPath = "coverage.bin";
    core::DatasetHandle r{"lakes.wkt", wkt};
    core::DatasetHandle s{"roads.wkt", wkt};
    const core::OverlayStats stats = core::gridCoverageOverlay(comm, *volume, r, &s, cfg);
    if (comm.rank() == 0) {
      grid = stats.grid;
      std::printf("coverage raster: %dx%d cells, one shared file, row-major\n", stats.grid.cellsX(),
                  stats.grid.cellsY());
      std::printf("lake area total: %.1f    road length total: %.1f\n", stats.totalR, stats.totalS);
      std::printf("virtual pipeline time (rank 0): %s\n\n",
                  util::formatSeconds(stats.phases.total()).c_str());
    }
  });

  // Sequential read-back of the shared output file (what a downstream
  // sequential tool would see) + ASCII rendering.
  auto obj = volume->lookup("coverage.bin");
  std::vector<core::CellCoverage> raster(static_cast<std::size_t>(grid.cellCount()));
  obj->data->read(0, reinterpret_cast<char*>(raster.data()),
                  raster.size() * sizeof(core::CellCoverage));
  double peak = 1e-12;
  for (const auto& c : raster) peak = std::max(peak, c.measureR);
  static const char kShades[] = " .:-=+*#%@";
  for (int y = grid.cellsY() - 1; y >= 0; --y) {
    for (int x = 0; x < grid.cellsX(); ++x) {
      const double v = raster[static_cast<std::size_t>(grid.cellIdOf(x, y))].measureR / peak;
      std::putchar(kShades[static_cast<int>(v * 9.0)]);
    }
    std::putchar('\n');
  }
  std::printf("\n(lake-area coverage per cell; '@' = densest)\n");
  return 0;
}
