// Figure 20: execution-time breakdown for distributed in-memory spatial
// indexing of Road Network (137 GB) among 2048 grid cells.
//
// Paper expectation: every component (read, partition, communication,
// index build) improves with the number of processes; at 320 processes,
// indexing 717M edges takes only 90 seconds.
//
// Scale: synthetic road-network polylines; 2048 cells as in the paper.

#include "common.hpp"

int main() {
  using namespace mvio;
  constexpr std::uint64_t kRecords = 150'000;

  bench::printHeader("Figure 20 — Distributed indexing breakdown (Road Network, 2048 cells)",
                     "all phases improve with process count (paper: 717M edges in 90 s at 320 procs)",
                     "synthetic road network, " + std::to_string(kRecords) + " polylines");

  osm::SynthSpec spec = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 41);
  spec.space.world = geom::Envelope(0, 0, 300, 300);
  auto volume = bench::rogerVolume(16, 1.0);
  volume->createOrReplace(
      "road_network.wkt", std::make_shared<pfs::MemoryBackingStore>(
                              osm::generateWktText(osm::RecordGenerator(spec), kRecords)));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  util::TextTable table({"procs", "read+parse", "partition", "comm", "index", "total", "indexed"});
  for (const int procs : {80, 160, 240, 320}) {
    core::PhaseBreakdown ph;
    std::uint64_t indexed = 0;
    mpi::Runtime::run(procs, sim::MachineModel::roger(procs / 20), [&](mpi::Comm& comm) {
      core::IndexingConfig cfg;
      cfg.framework.gridCells = 2048;
      core::DatasetHandle data{"road_network.wkt", wkt};
      core::IndexingStats stats;
      (void)core::buildDistributedIndex(comm, *volume, data, cfg, &stats);
      const auto reduced = stats.phases.maxAcross(comm);
      if (comm.rank() == 0) {
        ph = reduced;
        indexed = stats.globalGeometries;
      }
    });
    table.addRow({std::to_string(procs), util::formatSeconds(ph.read + ph.parse),
                  util::formatSeconds(ph.partition), util::formatSeconds(ph.comm),
                  util::formatSeconds(ph.compute), util::formatSeconds(ph.total()),
                  std::to_string(indexed)});
  }
  std::printf("%s\n", table.str().c_str());
  return 0;
}
