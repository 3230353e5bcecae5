// The staged job: the workload's pipeline decomposed into calls to each
// module's public functions, with a host-clock span around every call.
//
// It follows the uniform, failure-free path (round-robin cell owners, no
// pilot planning, migration, checkpoints or recovery): those run only
// inside core's pipeline entry points, so their cost is read from the
// *Stats of full jobs instead. What it does run — partitioned reads,
// parse, grid, projection, exchange rounds, the cell store (with the
// workload's memory budget, so its spill and cell-major reload), R-tree
// builds, index adoption and the collective raster write — it runs with
// the workload's own formats, rank/thread counts and chunk sizes, and its
// output is checked against the workload's oracle.
//
// Two steps have no public library entry point: the join's per-cell
// refine and the overlay's per-cell clipped sums (core keeps its refine
// tasks private). The staged job computes them with its own code, under
// "bench" spans: their time counts as the benchmark's self time, never as
// a library layer's, and never as span coverage.

#include <algorithm>
#include <exception>
#include <optional>

#include "core/cell_store.hpp"
#include "geom/rtree.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace mc = mvio::core;
namespace mg = mvio::geom;

namespace {

/// Sum of clipped measures in ascending order, so the cell total does not
/// depend on arrival order.
double sortedClippedSum(const mg::BatchSpan& span, const mg::Envelope& box) {
  std::vector<double> m;
  m.reserve(span.size());
  for (std::size_t k = 0; k < span.size(); ++k) m.push_back(span.clippedMeasure(k, box));
  std::sort(m.begin(), m.end());
  double sum = 0;
  for (const double v : m) sum += v;
  return sum;
}

struct RankResult {
  std::vector<mc::JoinPair> pairs;
  std::vector<std::uint64_t> counts;
  std::uint64_t indexed = 0;
  std::uint64_t exchangeBytes = 0, readBytes = 0;
};

mg::BatchSpan cellSpan(Tracer* tr, mc::CellStore& store, int cell) {
  Scope span(tr, "core", "cell_span");
  const mg::BatchSpan out = store.cellSpan(cell);
  span.count(out.size());
  return out;
}

/// Per-cell R-tree filter + exact refine with reference-point duplicate
/// avoidance: the benchmark's stand-in for core's private join task.
void joinCells(Tracer* tr, const mc::GridSpec& grid, mc::CellStore& r, mc::CellStore& s,
               std::vector<mc::JoinPair>& out) {
  Scope proxy(tr, "bench", "join_refine");
  std::string scratch;
  for (const int cell : r.cells()) {
    const mg::BatchSpan rSpan = cellSpan(tr, r, cell);
    const mg::BatchSpan sSpan = cellSpan(tr, s, cell);
    if (sSpan.empty()) continue;
    mg::RTree index(16);
    {
      Scope span(tr, "geom", "rtree_build");
      index.bulkLoad(rSpan);
      span.count(rSpan.size());
    }
    std::vector<std::optional<mg::Geometry>> rCache(rSpan.size());
    for (std::size_t k = 0; k < sSpan.size(); ++k) {
      const mg::Envelope& sEnv = sSpan.envelope(k);
      std::optional<mg::Geometry> sg;
      index.visit(sEnv, [&](std::uint64_t id) {
        const mg::Envelope& rEnv = rSpan.envelope(id);
        const mg::Coord ref{std::max(rEnv.minX(), sEnv.minX()), std::max(rEnv.minY(), sEnv.minY())};
        if (grid.cellOfPoint(ref) != cell) return;
        auto& rg = rCache[static_cast<std::size_t>(id)];
        if (!rg) rg = rSpan.materialize(id);
        if (!sg) sg = sSpan.materialize(k);
        if (!mg::intersects(*rg, *sg)) return;
        out.push_back({mc::geometryKey(rSpan.batch(), rSpan.recordIndex(id), scratch),
                       mc::geometryKey(sSpan.batch(), sSpan.recordIndex(k), scratch)});
      });
    }
  }
}

}  // namespace

StageOut runStaged(const WorkloadSpec& w, const Inputs& in, Tracer* tr, int job) {
  StageOut out;
  const int p = w.ranks;
  std::vector<RankResult> results(static_cast<std::size_t>(p));
  std::string raster;
  const mc::FrameworkConfig fw = frameworkFor(w);
  const std::uint64_t chunkBytes = fw.stream.chunkBytes;
  const int cells = fw.gridCells;
  const std::size_t layers = in.layers.size();

  ThreadSpan::job() = job;
  ThreadSpan::current() = -1;
  const double t0 = hostNow();
  try {
    Scope root(tr, "bench", "job");
    std::shared_ptr<mvio::pfs::Volume> volume;
    {
      Scope span(tr, "pfs", "volume");
      volume = freshVolume(w, in);
    }
    Scope run(tr, "mpi", "run");
    const int runId = run.id();
    mvio::mpi::Runtime::run(p, machineFor(w), [&](mvio::mpi::Comm& comm) {
      ThreadSpan::job() = job;
      ThreadSpan::current() = runId;
      Scope rankSpan(tr, "bench", "rank");
      RankResult& me = results[static_cast<std::size_t>(comm.rank())];
      std::unique_ptr<mvio::util::ThreadPool> pool;
      if (w.threadsPerRank > 1) {
        Scope span(tr, "util", "pool_start");
        pool = std::make_unique<mvio::util::ThreadPool>(w.threadsPerRank);
      }

      // Ingest: partitioned read + parse, chunk by chunk.
      std::vector<std::vector<mg::GeometryBatch>> chunks(layers);
      mg::Envelope local;
      for (std::size_t l = 0; l < layers; ++l) {
        const mc::DatasetHandle h = handleFor(w, in.layers[l]);
        std::optional<mvio::io::File> file;
        {
          Scope span(tr, "io", "open");
          file.emplace(mvio::io::File::open(comm, *volume, h.path, fw.ioHints));
        }
        std::optional<mc::PartitionReader> reader;
        {
          Scope span(tr, "io", "reader_open");
          reader.emplace(comm, *file, h.partition, chunkBytes, h.format);
        }
        std::string text;
        for (;;) {
          bool more = false;
          {
            Scope span(tr, "io", "read_chunk");
            more = reader->next(text);
            span.count(text.size());
          }
          if (!more) break;
          mg::GeometryBatch batch;
          {
            Scope span(tr, "geom", "parse");
            h.format->parseChunk(text, batch, pool.get());
            span.count(text.size());
          }
          if (!batch.empty()) local.expandToInclude(batch.bounds());
          chunks[l].push_back(std::move(batch));
        }
        me.readBytes += reader->counters().bytesRead;
      }

      mc::GridSpec grid;
      {
        Scope span(tr, "core", "grid");
        grid = mc::buildGlobalGrid(comm, local, cells);
      }
      const mc::PartitionMap map = mc::PartitionMap::uniform(grid);
      std::optional<mc::CellLocator> locator;
      {
        Scope span(tr, "core", "locator");
        locator.emplace(grid);
      }
      const auto owner = [p](int cell) { return mc::roundRobinOwner(cell, p); };

      // Projection + exchange, one round per chunk; a streamed layer ends
      // with one empty round flagged last, as the pipeline's stream does.
      // Received records accumulate in one CellStore per layer under the
      // workload's memory budget: resident without one, spilled in
      // cell-sorted shards through the volume with one.
      mvio::pfs::SpillStore spill(*volume, "__stage_spill/rank" + std::to_string(comm.rank()));
      std::vector<mc::CellStore> owned;
      owned.reserve(layers);
      for (std::size_t l = 0; l < layers; ++l) {
        owned.emplace_back(&spill, "own" + std::to_string(l), fw.stream.memoryBudget, 0,
                           [](std::uint64_t, bool) {});
      }
      mc::ExchangeStats xs;
      mc::ExchangeScratch scratch;
      const auto exchange = [&](mg::GeometryBatch&& batch, bool last, std::size_t l) {
        mg::GeometryBatch received;
        {
          Scope span(tr, "core", "exchange");
          received = mc::exchangeByCell(comm, std::move(batch), owner, fw.windowPhases, cells, &xs, {}, last,
                                        &scratch);
        }
        Scope span(tr, "core", "store_add");
        span.count(received.size());
        owned[l].add(std::move(received));
      };
      for (std::size_t l = 0; l < layers; ++l) {
        for (mg::GeometryBatch& chunk : chunks[l]) {
          mg::GeometryBatch projected;
          {
            Scope span(tr, "core", "project");
            span.count(chunk.size());
            projected = mc::projectToCells(map, &*locator, std::move(chunk));
          }
          exchange(std::move(projected), chunkBytes == 0, l);
        }
        if (chunkBytes != 0) exchange(mg::GeometryBatch{}, true, l);
        chunks[l].clear();
        Scope span(tr, "core", "store_finalize");
        owned[l].finalize();
      }
      me.exchangeBytes = xs.bytesSent;

      switch (w.kind) {
        case Kind::kJoin:
          joinCells(tr, grid, owned[0], owned[1], me.pairs);
          break;
        case Kind::kIndex: {
          // Cell-major adoption, as the pipeline's streaming refine does it:
          // each cell is reloaded from the spilled shards and handed over.
          mc::DistributedIndex index = mc::DistributedIndex::fromBatch(mg::GeometryBatch{}, grid);
          for (const int cell : owned[0].cells()) {
            cellSpan(tr, owned[0], cell);
            Scope span(tr, "core", "index_add");
            index.addBatch(owned[0].takeCellBatch());
          }
          owned[0].releaseBlobs();
          me.indexed = index.localGeometries();
          {
            Scope span(tr, "core", "index_build");
            index.buildTrees();
          }
          std::vector<std::uint64_t> local(in.oracle.queries.size());
          {
            Scope span(tr, "core", "query");
            for (std::size_t q = 0; q < local.size(); ++q) local[q] = index.queryCount(in.oracle.queries[q]);
          }
          me.counts.assign(local.size(), 0);
          Scope span(tr, "mpi", "allreduce");
          comm.allreduce(local.data(), me.counts.data(), static_cast<int>(local.size()),
                         mvio::mpi::Datatype::uint64(), mvio::mpi::Op::sum());
          break;
        }
        case Kind::kOverlay: {
          std::vector<mc::CellCoverage> mine;
          {
            Scope proxy(tr, "bench", "overlay_clip");
            for (int c = comm.rank(); c < grid.cellCount(); c += p) {
              const mg::Envelope box = grid.cellEnvelope(c);
              const double r = sortedClippedSum(cellSpan(tr, owned[0], c), box);
              mine.push_back({r, sortedClippedSum(cellSpan(tr, owned[1], c), box)});
            }
          }
          constexpr std::uint64_t kRecord = sizeof(mc::CellCoverage);
          if (comm.rank() == 0) {
            Scope span(tr, "pfs", "create");
            volume->createOrReplace("stage.bin", std::make_shared<mvio::pfs::MemoryBackingStore>(
                                                     static_cast<std::uint64_t>(grid.cellCount()) * kRecord));
          }
          {
            Scope span(tr, "mpi", "barrier");
            comm.barrier();
          }
          std::optional<mvio::io::File> file;
          {
            Scope span(tr, "io", "open");
            file.emplace(mvio::io::File::open(comm, *volume, "stage.bin", fw.ioHints));
          }
          const auto record = mvio::mpi::Datatype::contiguous(static_cast<int>(kRecord), mvio::mpi::Datatype::byte());
          file->setView(static_cast<std::uint64_t>(comm.rank()) * kRecord, mvio::mpi::Datatype::byte(),
                        record.resized(0, static_cast<std::uint64_t>(p) * kRecord));
          Scope span(tr, "io", "write_all");
          file->writeAtAll(0, mine.data(), static_cast<int>(mine.size()), record);
          span.count(mine.size() * kRecord);
          break;
        }
      }
    });
    if (w.kind == Kind::kOverlay) raster = fileBytes(*volume, "stage.bin");
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  }
  out.wallSeconds = hostNow() - t0;
  for (const RankResult& r : results) {
    out.exchangeBytes += r.exchangeBytes;
    out.readBytes += r.readBytes;
  }
  if (!out.error.empty()) return out;

  switch (w.kind) {
    case Kind::kJoin: {
      std::vector<mc::JoinPair> all;
      for (RankResult& r : results) all.insert(all.end(), r.pairs.begin(), r.pairs.end());
      out.error = checkPairs(std::move(all), in.oracle);
      break;
    }
    case Kind::kIndex: {
      std::uint64_t indexed = 0;
      for (const RankResult& r : results) indexed += r.indexed;
      out.error = checkCounts(results[0].counts, in.oracle);
      if (out.error.empty() && indexed != in.oracle.indexed) {
        out.error = "staged exchange delivered " + std::to_string(indexed) + " records, brute force says " +
                    std::to_string(in.oracle.indexed);
      }
      break;
    }
    case Kind::kOverlay:
      out.error = checkRaster(raster, in.oracle);
      break;
  }
  return out;
}

}  // namespace perfbench
