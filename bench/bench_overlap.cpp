// Hybrid MPI+threads ablation (DESIGN.md §10): a streamed two-layer
// spatial join swept over threadsPerRank × overlapRounds. The worker pool
// fans chunk parsing and cell-major refine out per rank and charges the
// clock by each region's critical path, so parse/compute shrink toward
// 1/threads; round overlap then hides prep and store-flush time under the
// exchange rounds, moving it from the exposed phase columns into
// `hidden`. Results must be bit-identical on every row — the harness
// aborts on a pairs mismatch, which makes it a pipeline smoke test too.

#include "common.hpp"

#include <algorithm>
#include <mutex>

int main() {
  using namespace mvio;
  constexpr int kProcs = 8;

  bench::printHeader(
      "Hybrid MPI+threads — join makespan vs threadsPerRank x round overlap (8 procs)",
      "threaded ranks cut parse/refine by the pool's critical path; overlap hides prep "
      "under exchanges; results identical on every row",
      "synthetic cemetery (16000 polys) x road network (8000 lines), 64 KiB chunks, "
      "COMET model at 1/20 request latency");

  osm::SynthSpec specR = osm::datasetSpec(osm::DatasetId::kCemetery, 81);
  specR.space.world = geom::Envelope(0, 0, 40, 40);
  osm::SynthSpec specS = osm::datasetSpec(osm::DatasetId::kRoadNetwork, 82);
  specS.space.world = specR.space.world;

  // The scale keeps modelled read latency a minority share of the
  // makespan: this ablation measures what the worker pool can touch
  // (parse, refine, prep exposure), and per-request latency is invariant
  // to threads by construction.
  auto volume = bench::cometVolume(kProcs / 4, 0.05);
  volume->createOrReplace("r.wkt", std::make_shared<pfs::MemoryBackingStore>(
                                       osm::generateWktText(osm::RecordGenerator(specR), 16000)));
  volume->createOrReplace("s.wkt", std::make_shared<pfs::MemoryBackingStore>(
                                       osm::generateWktText(osm::RecordGenerator(specS), 8000)));
  const core::FormatReader* wkt = core::FormatRegistry::instance().get("wkt");

  struct Config {
    const char* label;
    int threads;
    bool overlap;
  };
  const Config configs[] = {
      {"t=1", 1, false},         {"t=1 +overlap", 1, true}, {"t=2", 2, false},
      {"t=2 +overlap", 2, true}, {"t=4", 4, false},         {"t=4 +overlap", 4, true},
  };

  util::TextTable table({"config", "pairs", "makespan", "read", "parse", "partition", "comm",
                         "compute", "hidden", "workerCPU", "critical", "speedup"});
  std::vector<core::JoinPair> basePairs;
  double baseMakespan = 0;
  obs::RunReport report;
  report.name = "overlap";
  report.setup = "8 procs, t=4 +overlap, 64 cells, 64 KiB chunks, COMET 1/20 latency";

  for (const Config& cfg : configs) {
    // The t=4 +overlap row is the tentpole configuration: it is the one
    // the flight recorder traces and the run report captures.
    const bool instrumented = cfg.threads == 4 && cfg.overlap;
    core::PhaseBreakdown maxPhases;
    std::vector<core::JoinPair> pairs;
    std::uint64_t globalPairs = 0;
    double makespan = 0;
    std::mutex mu;
    mpi::Runtime::run(kProcs, sim::MachineModel::comet(kProcs / 4), [&](mpi::Comm& comm) {
      bench::RankRecorder rec(instrumented, cfg.threads);
      core::JoinConfig jcfg;
      jcfg.framework.gridCells = 64;
      jcfg.framework.stream.chunkBytes = 64 << 10;
      jcfg.framework.threadsPerRank = cfg.threads;
      jcfg.framework.stream.overlapRounds = cfg.overlap;
      core::DatasetHandle r{"r.wkt", wkt};
      core::DatasetHandle s{"s.wkt", wkt};
      std::vector<core::JoinPair> local;
      const auto stats = core::spatialJoin(comm, *volume, r, s, jcfg, &local);
      // One reduction feeds the table row and (on the instrumented row)
      // the report JSON, so the two cannot disagree.
      const auto reduced = instrumented ? report.capturePhases(comm, stats.phases)
                                        : stats.phases.maxAcross(comm);
      if (instrumented) report.captureMetrics(comm);
      double end = comm.clock().now();
      double maxEnd = 0;
      comm.allreduce(&end, &maxEnd, 1, mpi::Datatype::float64(), mpi::Op::max());
      rec.finish(comm);
      std::lock_guard<std::mutex> lock(mu);
      pairs.insert(pairs.end(), local.begin(), local.end());
      globalPairs = stats.globalPairs;
      makespan = maxEnd;
      if (comm.rank() == 0) maxPhases = reduced;
    });
    std::sort(pairs.begin(), pairs.end());
    if (instrumented) {
      report.addValue("pairs", static_cast<double>(globalPairs));
      report.addValue("makespan_seconds", makespan);
    }

    if (basePairs.empty()) {
      basePairs = pairs;
      baseMakespan = makespan;
    } else if (pairs != basePairs) {
      std::fprintf(stderr, "FATAL: %s changed the join result (%zu pairs vs %zu baseline)\n",
                   cfg.label, pairs.size(), basePairs.size());
      return 1;
    }

    char speedup[32];
    std::snprintf(speedup, sizeof(speedup), "%.2fx", baseMakespan / makespan);
    table.addRow({cfg.label, std::to_string(globalPairs), util::formatSeconds(makespan),
                  util::formatSeconds(maxPhases.read), util::formatSeconds(maxPhases.parse),
                  util::formatSeconds(maxPhases.partition),
                  util::formatSeconds(maxPhases.comm), util::formatSeconds(maxPhases.compute),
                  util::formatSeconds(maxPhases.overlapped),
                  util::formatSeconds(maxPhases.workerCpu),
                  util::formatSeconds(maxPhases.workerCritical), speedup});
  }
  std::printf("%s\n", table.str().c_str());
  std::printf("note: pairs must be identical on every row. speedup is against the serial\n"
              "no-overlap row; t=4 +overlap is the tentpole configuration.\n");
  bench::maybeWriteReport(report);
  return 0;
}
