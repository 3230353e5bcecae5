// Streaming-budget sweep: single-layer indexing of a road-network layer
// through the chunked pipeline (DESIGN.md §7) at a fixed chunk size,
// sweeping StreamConfig::memoryBudget from unlimited down to a fraction
// of the per-rank working set.
//
// Expectation: results are identical at every budget (the equivalence the
// tests assert); bytes-spilled grows as the budget shrinks while the
// read/parse/comm splits stay flat, and the spill column prices the extra
// scratch I/O — the throughput-vs-budget trade the ViPIOS-style staged
// out-of-core designs describe. The one-shot row (chunk = ∞) is the
// baseline: one round per layer, zero spill. Allocation and payload-copy
// counters (bench/common.hpp) run alongside so the streaming path's batch
// discipline stays visible next to its timings.

#include "common.hpp"

int main() {
  using namespace mvio;
  constexpr int kProcs = 16;
  constexpr std::uint64_t kChunk = 64 << 10;

  bench::printHeader(
      "Streaming budget sweep — indexing breakdown vs memory budget (road network, 16 procs)",
      "identical results at every budget; spilled bytes grow as the budget shrinks",
      "synthetic road network (30000 lines), 64 KiB chunks, COMET Lustre model");

  osm::SynthSpec roads = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 9);
  roads.space.world = geom::Envelope(0, 0, 100, 100);
  roads.space.clusters = 8;
  roads.space.clusterStddev = 6;

  auto volume = bench::cometVolume(kProcs / 4, 1.0);
  volume->createOrReplace("roads.wkt",
                          std::make_shared<pfs::MemoryBackingStore>(
                              osm::generateWktText(osm::RecordGenerator(roads), 30000)));

  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
  const geom::Envelope probe(20, 20, 60, 60);

  struct Config {
    const char* label;
    std::uint64_t chunkBytes;
    std::uint64_t budget;
  };
  const Config configs[] = {
      {"one-shot", 0, 0},
      {"unbounded", kChunk, 0},
      {"1 MiB", kChunk, 1 << 20},
      {"256 KiB", kChunk, 256 << 10},
      {"64 KiB", kChunk, 64 << 10},
  };

  std::vector<std::string> columns = {"budget", "matches", "spilled", "allocs", "copied"};
  for (const auto& c : bench::streamPhaseColumns()) columns.push_back(c);
  util::TextTable table(columns);
  for (const Config& cfg : configs) {
    const bench::Counters c0 = bench::countersNow();
    core::PhaseBreakdown maxPhases;
    std::atomic<std::uint64_t> spilledBytes{0};
    std::atomic<std::uint64_t> matches{0};
    mpi::Runtime::run(kProcs, sim::MachineModel::comet(kProcs / 4), [&](mpi::Comm& comm) {
      core::IndexingConfig icfg;
      icfg.framework.gridCells = 256;
      icfg.framework.stream.chunkBytes = cfg.chunkBytes;
      icfg.framework.stream.memoryBudget = cfg.budget;
      core::DatasetHandle data{"roads.wkt", wkt};
      core::IndexingStats stats;
      const auto index = core::buildDistributedIndex(comm, *volume, data, icfg, &stats);
      const auto reduced = stats.phases.maxAcross(comm);
      spilledBytes += stats.spill.bytesWritten;
      matches += index.queryCount(probe);
      if (comm.rank() == 0) maxPhases = reduced;
    });
    const bench::Counters used = bench::countersSince(c0);

    std::vector<std::string> row = {cfg.label, std::to_string(matches.load()),
                                    util::formatBytes(spilledBytes.load()),
                                    std::to_string(used.allocs), util::formatBytes(used.bytesCopied)};
    for (const auto& cell : bench::streamPhaseRow(maxPhases)) row.push_back(cell);
    table.addRow(row);
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("note: matches must be identical on every row; rounds and spilled bytes are the\n"
              "only columns that should move with the budget.\n");
  return 0;
}
