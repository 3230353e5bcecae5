// Figure 10: message-based dynamic partitioning (Algorithm 1) vs
// overlapped (halo) reading for Lakes (9 GB), three stripe counts.
//
// Paper expectation: the message-based algorithm beats overlap across
// process counts and stripe counts — the cost of re-reading an 11 MB halo
// per rank per iteration exceeds the cost of exchanging the missing
// coordinates. Block size fixed at 32 MB.
//
// Scale: 1/32 (halo 11 MB -> scaled with everything else).

#include "common.hpp"

int main() {
  using namespace mvio;
  constexpr double kScale = 1.0 / 32.0;

  const auto info = osm::datasetInfo(osm::DatasetId::kLakes);
  const std::uint64_t fileBytes = bench::scaledBytes(static_cast<double>(info.paperBytes), kScale);
  const std::uint64_t block = bench::scaledBytes(32.0 * 1024 * 1024, kScale);
  const std::uint64_t halo = bench::scaledBytes(11.0 * 1024 * 1024, kScale);

  bench::printHeader("Figure 10 — Message vs Overlap partitioning, Lakes (9 GB)",
                     "message-based wins for every stripe count and process count",
                     "scale 1/32: file " + util::formatBytes(fileBytes) + ", block 32 MB -> " +
                         util::formatBytes(block) + ", halo 11 MB -> " + util::formatBytes(halo));

  osm::RecordGenerator gen(osm::datasetSpec(osm::DatasetId::kLakes));
  auto pool = std::make_shared<const osm::RecordPool>(gen, 256);

  util::TextTable table(
      {"OSTs", "procs", "message time", "overlap time", "overlap/message", "redundant bytes"});
  for (const int osts : {32, 64, 96}) {
    for (const int procs : {64, 128, 256}) {
      const int nodes = procs / 16;
      double times[2] = {0, 0};
      std::uint64_t redundant = 0;
      for (int mode = 0; mode < 2; ++mode) {
        auto volume = bench::cometVolume(nodes, kScale);
        volume->createOrReplace("lakes.wkt", osm::makeVirtualWktFile(pool, fileBytes, 1ull << 20, 3, 96),
                                {block, osts});
        std::uint64_t bytesRead = 0;
        mpi::Runtime::run(procs, sim::MachineModel::comet(nodes), [&](mpi::Comm& comm) {
          auto file = io::File::open(comm, *volume, "lakes.wkt");
          core::PartitionConfig cfg;
          cfg.blockSize = block;
          cfg.maxGeometryBytes = halo;
          cfg.strategy = mode == 0 ? core::BoundaryStrategy::kMessage : core::BoundaryStrategy::kOverlap;
          cfg.collectiveRead = true;  // the paper's Level-1 section hosts this comparison
          comm.syncClocks();
          const double t0 = comm.clock().now();
          const auto res = core::readPartitioned(comm, file, cfg);
          const double t1 = comm.allreduceMax(comm.clock().now());
          const std::uint64_t total = comm.allreduceSumU64(res.bytesRead);
          if (comm.rank() == 0) {
            times[mode] = t1 - t0;
            bytesRead = total;
          }
        });
        if (mode == 1) redundant = bytesRead - fileBytes;
      }
      table.addRow({std::to_string(osts), std::to_string(procs), util::formatSeconds(times[0]),
                    util::formatSeconds(times[1]), util::formatFixed(times[1] / times[0], 2),
                    util::formatBytes(redundant)});
    }
  }
  std::printf("%s\n", table.str().c_str());

  // The winning message-based strategy feeds the streamed pipeline, which
  // since DESIGN.md §10 has its own (clock-level) overlap axis: round
  // overlap hides chunk prep and store flushes under the exchange rounds,
  // and threadsPerRank shrinks the prep itself. Rerun the message-based
  // read through a streamed index build at one representative point of
  // the grid above so both overlap meanings sit side by side.
  {
    constexpr double kPipeScale = kScale / 8.0;
    const std::uint64_t pipeBytes =
        bench::scaledBytes(static_cast<double>(info.paperBytes), kPipeScale);
    const std::uint64_t pipeBlock = bench::scaledBytes(32.0 * 1024 * 1024, kPipeScale);
    constexpr int kPipeProcs = 64;
    const int nodes = kPipeProcs / 16;

    std::printf("message-based partitioning through the streamed pipeline "
                "(%d procs, 32 OSTs, file %s):\n",
                kPipeProcs, util::formatBytes(pipeBytes).c_str());
    util::TextTable pipe({"pipeline", "makespan", "read", "parse", "comm", "hidden", "speedup"});
    double base = 0;
    struct Mode {
      const char* label;
      int threads;
      bool overlap;
    };
    for (const Mode m : {Mode{"serial rounds", 1, false}, Mode{"t=4 workers", 4, false},
                         Mode{"t=4 + round overlap", 4, true}}) {
      auto volume = bench::cometVolume(nodes, kPipeScale);
      volume->createOrReplace("lakes.wkt",
                              osm::makeVirtualWktFile(pool, pipeBytes, 1ull << 20, 3, 96),
                              {pipeBlock, 32});
      const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");
      core::PhaseBreakdown maxPhases;
      double makespan = 0;
      mpi::Runtime::run(kPipeProcs, sim::MachineModel::comet(nodes), [&](mpi::Comm& comm) {
        core::IndexingConfig icfg;
        icfg.framework.gridCells = 256;
        icfg.framework.stream.chunkBytes = pipeBlock;
        icfg.framework.threadsPerRank = m.threads;
        icfg.framework.stream.overlapRounds = m.overlap;
        core::DatasetHandle data{"lakes.wkt", wkt};
        core::IndexingStats stats;
        core::buildDistributedIndex(comm, *volume, data, icfg, &stats);
        const auto reduced = stats.phases.maxAcross(comm);
        const double end = comm.allreduceMax(comm.clock().now());
        if (comm.rank() == 0) {
          maxPhases = reduced;
          makespan = end;
        }
      });
      if (base == 0) base = makespan;
      pipe.addRow({m.label, util::formatSeconds(makespan), util::formatSeconds(maxPhases.read),
                   util::formatSeconds(maxPhases.parse), util::formatSeconds(maxPhases.comm),
                   util::formatSeconds(maxPhases.overlapped),
                   util::formatFixed(base / makespan, 2) + "x"});
    }
    std::printf("%s\n", pipe.str().c_str());
  }
  return 0;
}
