#include "core/framework.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <numeric>
#include <tuple>

#include "core/cell_store.hpp"
#include "geom/batch_shard.hpp"
#include "io/file.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "recovery/recovery.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/thread_pool.hpp"

namespace mvio::core {

void RefineTask::adoptBatches(geom::GeometryBatch&& /*r*/, geom::GeometryBatch&& /*s*/) {
  // Default: drop the batches. Tasks that fully reduce inside
  // refineCellBatch (join counts, coverage sums) need nothing more; tasks
  // whose product outlives the pipeline (DistributedIndex) override this
  // and take the arenas wholesale.
}

void RefineTask::mergeWorker(RefineTask& /*worker*/) {
  // Partner of the nullptr makeWorker default: a task that opts out of
  // parallel refine never has workers to merge.
}

namespace {

/// Node-local scratch bandwidth pricing spill writes + reloads when
/// StreamConfig::spillOnPfs is off.
constexpr double kNodeLocalSpillBytesPerSecond = 2.0e9;
/// Largest encoded migration blob (migrateShards bound).
constexpr std::uint64_t kMigrationBlobBytes = 1ull << 20;

std::uint64_t allreduceMaxU64(mpi::Comm& comm, std::uint64_t v) {
  std::uint64_t out = 0;
  comm.allreduce(&v, &out, 1, mpi::Datatype::uint64(), mpi::Op::max());
  return out;
}

/// Rank-local spill plumbing shared by the streaming stages: encodes
/// batches to BatchShards on the rank's SpillStore and charges the
/// modelled scratch-I/O time (flat node-local rate, or the Volume's
/// storage model when the scratch lives on the PFS) to the rank clock /
/// spill phase.
struct Spiller {
  mpi::Comm* comm;
  pfs::SpillStore* store;
  pfs::SpillPricer pricer;
  PhaseBreakdown* phases;
  /// Round-overlap mode: when set, charge() banks the modelled seconds
  /// here instead of advancing the clock — the round loop replays them
  /// through the store-flush pipeline stage so round N−1's owned-store
  /// flush hides under round N's exchange (DESIGN.md §10). The framework
  /// toggles this only around CellStore::add during data rounds; the
  /// BatchStager holds a defer-less copy, so staging spills always charge
  /// synchronously.
  double* defer = nullptr;

  void charge(std::uint64_t bytes, bool isWrite) const {
    const double t = pricer.seconds(bytes, isWrite, comm->clock().now());
    obs::addCount(isWrite ? "spill.write_bytes" : "spill.read_bytes", bytes);
    if (defer != nullptr) {
      *defer += t;  // replayed as a flush-lane span by the round loop
      return;
    }
    const double t0 = comm->clock().now();
    comm->clock().advanceBy(t);
    obs::traceSpanAt("spill", t0, comm->clock().now());
    phases->spill += t;
  }

  void spill(const std::string& name, const geom::GeometryBatch& b) const {
    std::string bytes;
    bytes.reserve(geom::shardEncodedSize(b, 0, b.size()));
    geom::encodeShard(b, bytes);
    charge(bytes.size(), /*isWrite=*/true);
    store->put(name, std::move(bytes));
  }

  /// Reload a shard, *appending* its records to `out`, and drop the blob.
  void reload(const std::string& name, geom::GeometryBatch& out) const {
    const std::string bytes = store->fetch(name);
    charge(bytes.size(), /*isWrite=*/false);
    geom::decodeShard(bytes, out);
    store->remove(name);
  }
};

/// FIFO of parsed-but-not-yet-exchanged chunk batches with a resident-byte
/// budget: when the queue's in-memory bytes exceed the budget, the oldest
/// resident batches are written out as shards (oldest first — they are
/// also the first to be reloaded, so the resident tail stays hot).
class BatchStager {
 public:
  BatchStager(const Spiller& spiller, std::string base, std::uint64_t budget)
      : spiller_(spiller), base_(std::move(base)), budget_(budget) {}

  void push(geom::GeometryBatch&& b) {
    Slot slot;
    slot.bytes = b.memoryBytes();
    slot.batch = std::move(b);
    resident_ += slot.bytes;
    slots_.push_back(std::move(slot));
    enforceBudget();
  }

  /// Pop the oldest chunk (reloading it if spilled). Returns false when
  /// the queue is empty — callers then run an empty round.
  bool pop(geom::GeometryBatch& out) {
    if (slots_.empty()) return false;
    Slot& front = slots_.front();
    if (front.spilled) {
      out = geom::GeometryBatch();
      spiller_.reload(front.shard, out);
    } else {
      resident_ -= front.bytes;
      out = std::move(front.batch);
    }
    slots_.pop_front();
    if (spillCursor_ > 0) --spillCursor_;
    return true;
  }

  [[nodiscard]] std::size_t pending() const { return slots_.size(); }

 private:
  struct Slot {
    geom::GeometryBatch batch;
    std::string shard;
    std::uint64_t bytes = 0;
    bool spilled = false;
  };

  void enforceBudget() {
    // Invariant: slots_[0, spillCursor_) are spilled, the rest resident —
    // spilling proceeds front-to-back and pop() removes the front, so the
    // cursor avoids rescanning already-spilled slots on every push.
    while (resident_ > budget_ && spillCursor_ < slots_.size()) {
      Slot& slot = slots_[spillCursor_++];
      slot.shard = base_ + "." + std::to_string(seq_++);
      spiller_.spill(slot.shard, slot.batch);
      resident_ -= slot.bytes;
      slot.batch = geom::GeometryBatch();
      slot.spilled = true;
    }
  }

  Spiller spiller_;
  std::string base_;
  std::uint64_t budget_;
  std::deque<Slot> slots_;
  std::uint64_t resident_ = 0;
  std::size_t seq_ = 0;
  std::size_t spillCursor_ = 0;  ///< first not-yet-spilled slot
};

/// One chunk's deferred prep charge under round overlap (DESIGN.md §10):
/// the rank clock when its read completed and the parse critical path the
/// round loop's pipeline recurrence still has to account for.
struct ChunkPrep {
  double readDoneAt = 0;
  double prepSeconds = 0;
};

/// Pilot pass for adaptive partitioning (DESIGN.md §13): a deterministic
/// stride sample of every parsed record's envelope, shared across chunks
/// and layers so the rate holds over the whole ingest.
struct PilotSampler {
  std::uint64_t stride = 100;
  std::uint32_t cap = 1u << 16;
  std::uint64_t seen = 0;
  std::vector<geom::Envelope> envelopes;

  explicit PilotSampler(const PartitionerConfig& cfg) : cap(cfg.maxSamplesPerRank) {
    const double rate = std::clamp(cfg.sampleRate, 1e-6, 1.0);
    stride = std::max<std::uint64_t>(1, static_cast<std::uint64_t>(1.0 / rate));
  }

  void observe(const geom::GeometryBatch& chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i, ++seen) {
      if (seen % stride != 0 || envelopes.size() >= cap) continue;
      envelopes.push_back(chunk.envelope(i));
    }
  }
};

/// Ascending union of two sorted cell-id lists.
std::vector<int> mergeCellLists(const std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(), std::back_inserter(out));
  return out;
}

/// Refine dispatch through the partition map. Uniform maps call straight
/// through (partition cells *are* grid cells). Adaptive maps sub-bucket
/// the partition cell's records by uniform member cell — re-running the
/// same overlappingCells arithmetic projection used, keeping only members
/// of this partition cell — and refine each member separately, so every
/// task sees exactly the uniform cells, spans and duplicate-avoidance
/// geometry the uniform-grid run would have produced.
void refineThroughMap(RefineTask& task, const PartitionMap& map, int cell,
                      const geom::BatchSpan& r, const geom::BatchSpan& s) {
  if (map.isUniform()) {
    task.refineCellBatch(map.grid(), cell, r, s);
    return;
  }
  const GridSpec& grid = map.grid();
  // Ascending uniform member id; each layer's sub-list keeps span order.
  std::map<int, std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>> sub;
  std::vector<int> cells;
  const auto bucket = [&](const geom::BatchSpan& span, bool isR) {
    for (std::size_t k = 0; k < span.size(); ++k) {
      cells.clear();
      grid.overlappingCells(span.envelope(k), cells);
      for (const int u : cells) {
        if (map.groupOf(u) != cell) continue;
        auto& lists = sub[u];
        (isR ? lists.first : lists.second)
            .push_back(static_cast<std::uint32_t>(span.recordIndex(k)));
      }
    }
  };
  bucket(r, true);
  bucket(s, false);
  for (const auto& [u, lists] : sub) {
    // An empty sub-list must become a default span: BatchSpan::batch()
    // dereferences, and r/s themselves may be default spans here.
    const geom::BatchSpan subR =
        lists.first.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&r.batch(), lists.first.data(), lists.first.size());
    const geom::BatchSpan subS =
        lists.second.empty()
            ? geom::BatchSpan()
            : geom::BatchSpan(&s.batch(), lists.second.data(), lists.second.size());
    task.refineCellBatch(grid, u, subR, subS);
  }
}

/// This rank's place in the fault schedule: events sharing (afterRound,
/// recovery pass) die together as one wave. firstKillRound 0 = none.
struct FailurePlan {
  std::size_t myWave = SIZE_MAX;  ///< wave this rank dies in (SIZE_MAX = never)
  std::uint64_t firstKillRound = 0;
  std::uint64_t lastKillRound = 0;
};

/// Argument checks, run before any state is built, and the fault
/// schedule ordered by (boundary, recovery pass, rank).
FailurePlan checkConfig(const mpi::Comm& comm, const DatasetHandle& r, const DatasetHandle* s,
                        const FrameworkConfig& cfg) {
  MVIO_CHECK(cfg.gridCells >= 1, "need at least one grid cell");
  MVIO_CHECK(r.format != nullptr && (s == nullptr || s->format != nullptr),
             "every DatasetHandle needs a format (FormatRegistry reader or TextFormatReader)");
  // Checkpoint blob names are keyed by world rank, so the subsystem
  // requires the launch (world) communicator when enabled (DESIGN.md §9).
  const bool checkpointing = cfg.stream.checkpointEveryRounds != 0;
  if (checkpointing) {
    MVIO_CHECK(comm.rank() == comm.worldRank(),
               "checkpointing requires the world communicator (blob names are world-rank keyed)");
  }
  std::vector<sim::FailureEvent> schedule = cfg.failSchedule;
  std::sort(schedule.begin(), schedule.end(),
            [](const sim::FailureEvent& a, const sim::FailureEvent& b) {
              return std::tie(a.afterRound, a.duringRecoveryPass, a.rank) <
                     std::tie(b.afterRound, b.duringRecoveryPass, b.rank);
            });
  FailurePlan plan;
  if (!schedule.empty()) {
    const int p = comm.size();
    MVIO_CHECK(checkpointing, "failure injection requires StreamConfig::checkpointEveryRounds > 0");
    MVIO_CHECK(static_cast<int>(schedule.size()) < p,
               "failure injection must leave at least one survivor");
    std::vector<int> dying;
    for (std::size_t i = 0, wave = 0; i < schedule.size(); ++i) {
      const sim::FailureEvent& ev = schedule[i];
      MVIO_CHECK(ev.rank >= 0 && ev.rank < p, "fault schedule names a rank outside the communicator");
      MVIO_CHECK(ev.afterRound != 0, "fault schedule event without a kill round");
      MVIO_CHECK(ev.duringRecoveryPass >= 0, "fault schedule event with a negative recovery pass");
      const sim::FailureEvent& prev = schedule[i == 0 ? 0 : i - 1];
      if (std::tie(ev.afterRound, ev.duringRecoveryPass) !=
          std::tie(prev.afterRound, prev.duringRecoveryPass)) {
        ++wave;
      }
      if (ev.rank == comm.worldRank()) plan.myWave = wave;
      dying.push_back(ev.rank);
    }
    std::sort(dying.begin(), dying.end());
    MVIO_CHECK(std::adjacent_find(dying.begin(), dying.end()) == dying.end(),
               "fault schedule kills the same rank twice");
    MVIO_CHECK(schedule.front().duringRecoveryPass == 0,
               "the first failure wave must strike at a round boundary, not during recovery");
    plan.firstKillRound = schedule.front().afterRound;
    plan.lastKillRound = schedule.back().afterRound;
  }
  MVIO_CHECK(cfg.threadsPerRank >= 1, "threadsPerRank must be at least 1");
  return plan;
}

/// Refine worker clones, one per pool thread. None for a one-thread pool
/// or a task whose makeWorker returns nullptr (the task is then its own
/// single worker).
std::vector<std::unique_ptr<RefineTask>> makeRefineWorkers(RefineTask& task, int threads) {
  std::vector<std::unique_ptr<RefineTask>> workers;
  for (int t = 0; threads > 1 && t < threads; ++t) {
    std::unique_ptr<RefineTask> w = task.makeWorker();
    if (w == nullptr) return {};
    workers.push_back(std::move(w));
  }
  return workers;
}

/// The run's state, shared by the stage functions below (one per step of
/// paper §4.3). Never copied: members hold pointers into it.
struct Run {
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;
  Run(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r, const DatasetHandle* s,
      const FrameworkConfig& cfg, RefineTask& task, FailurePlan failures)
      : comm(comm),
        volume(volume),
        r(r),
        s(s),
        cfg(cfg),
        task(task),
        failures(std::move(failures)),
        overlap(cfg.stream.overlapRounds && cfg.stream.chunkBytes > 0),
        ckptCfg{.everyRounds = cfg.stream.checkpointEveryRounds,
                .dir = cfg.stream.checkpointDir,
                .tearEpochSeal = cfg.stream.tearEpochSeal,
                .compactEveryEpochs = cfg.stream.compaction.everyEpochs},
        ckpt(comm, volume, ckptCfg, &stats.phases),
        pool(cfg.threadsPerRank),
        refineWorkers(makeRefineWorkers(task, pool.threads())),
        spill(volume, cfg.stream.spillDir + "/rank" + std::to_string(comm.worldRank())),
        spiller{&comm, &spill,
                cfg.stream.spillOnPfs ? pfs::SpillPricer::onVolume(volume, comm.nodeId())
                                      : pfs::SpillPricer::flatRate(kNodeLocalSpillBytesPerSecond),
                &stats.phases},
        refineGroupBytes(cfg.stream.memoryBudget > 0 && !refineWorkers.empty()
                             ? std::max<std::uint64_t>(cfg.stream.memoryBudget / 4, 1)
                             : 0),
        storeBudget([&] {
          const std::uint64_t budget = cfg.stream.memoryBudget;
          const std::uint64_t share =
              refineGroupBytes > 0 ? std::max<std::uint64_t>(budget - refineGroupBytes, 1) : budget;
          return (s != nullptr && share > 0) ? std::max<std::uint64_t>(share / 2, 1) : share;
        }()),
        stage{{spiller, "pend_r", cfg.stream.memoryBudget ? cfg.stream.memoryBudget : UINT64_MAX},
              {spiller, "pend_s", cfg.stream.memoryBudget ? cfg.stream.memoryBudget : UINT64_MAX}},
        owned{{&spill, "own_r", storeBudget, [this](auto... a) { spiller.charge(a...); }},
              {&spill, "own_s", storeBudget, [this](auto... a) { spiller.charge(a...); }}},
        owner([p = comm.size()](int cell) { return roundRobinOwner(cell, p); }),
        active(comm) {
    // Adaptive partitioning piggybacks a pilot sample on the ingest scan —
    // no extra read pass (DESIGN.md §13).
    if (cfg.partition.scheme != PartitionScheme::kUniform) pilot.emplace(cfg.partition);
  }

  mpi::Comm& comm;
  pfs::Volume& volume;
  const DatasetHandle& r;
  const DatasetHandle* s;  ///< null for single-layer runs
  const FrameworkConfig& cfg;
  RefineTask& task;
  const FailurePlan failures;
  /// Round overlap is defined on the chunked round schedule; a one-shot
  /// run (chunkBytes == 0) has a single round and nothing to pipeline.
  const bool overlap;
  FrameworkStats stats;
  recovery::CheckpointConfig ckptCfg;
  recovery::CheckpointCoordinator ckpt;
  /// Per-rank worker pool (DESIGN.md §10). The rank thread keeps
  /// exclusive ownership of Comm and the sim clock; workers only run
  /// parse/refine bodies, each region charged afterwards by its critical
  /// path. One thread = no threads spawned, regions run inline.
  util::ThreadPool pool;
  std::vector<std::unique_ptr<RefineTask>> refineWorkers;
  /// Rank-local scratch for spilled shards; blobs are dropped on exit.
  pfs::SpillStore spill;
  Spiller spiller;
  /// Two-layer runs split the refine budget between the layer stores so
  /// the reported peak (their sum) stays within the configured bound. A
  /// parallel streaming refine additionally reserves a group share out of
  /// the same budget for the per-dispatch staged cell batches, keeping the
  /// bound (plus the usual one-cell slack) intact.
  std::uint64_t refineGroupBytes;
  std::uint64_t storeBudget;
  // Per layer (R, S) from here on.
  BatchStager stage[2];
  /// Received records accumulate here: resident when the budget is
  /// unbounded, cell-sorted spill segments otherwise.
  CellStore owned[2];

  geom::Envelope localBounds;
  std::optional<PilotSampler> pilot;  ///< adaptive schemes only
  std::deque<ChunkPrep> prep[2];  ///< deferred parse charges (overlap)
  std::optional<CellLocator> locator;
  CellOwnerFn owner;          ///< exchange-round ownership: round-robin
  std::vector<int> rrOwner;   ///< `owner` as a table, for checkpoint seals
  std::uint64_t rounds[2] = {0, 0};  ///< data rounds per layer

  mpi::Comm active;              ///< shrinks to the survivors after a recovery
  std::vector<int> activeWorld;  ///< active-local rank -> world rank (post-recovery)
  bool recovered = false;
  std::uint64_t globalRound = 0;
  /// Reused across every exchange round so the p-sized header/count
  /// vectors and the payload buffers keep their capacity between rounds.
  ExchangeScratch xscratch;
  /// Round-overlap pipeline state (DESIGN.md §10), shared across layers.
  /// prepDoneAt models the prep stage (deferred parse + projection,
  /// double-buffered two rounds deep against the exchange), storeDoneAt
  /// the store-flush stage replaying deferred owned-store spill charges,
  /// commDonePrev* the last two rounds' exchange completion times.
  double prepDoneAt = 0;
  double commDonePrev1 = 0;
  double commDonePrev2 = 0;
  double storeDoneAt = 0;
  double spillBanked = 0;
};

/// Phases 1+2 for one layer, chunk by chunk: partitioned read then parse
/// straight into a per-chunk batch (no per-record Geometry objects),
/// staged for the exchange rounds. Accumulates the layer's local MBR for
/// grid construction along the way. With checkpointing enabled every
/// chunk's input-file ranges and text checksum go to the chunk log — the
/// replay source recovery re-derives lost rounds from by re-reading the
/// input.
///
/// With more than one pool thread the chunk text is parsed in parallel
/// record-boundary slices and the clock is charged the critical path —
/// max worker CPU plus the serial splice — instead of the summed CPU.
/// Under round overlap the parse charge is not applied here at all: it is
/// recorded per chunk and replayed by the round loop's pipeline
/// recurrence, where it can hide under exchanges.
void ingestLayer(Run& run, int layer) {
  mpi::Comm& comm = run.comm;
  PhaseBreakdown& phases = run.stats.phases;
  const DatasetHandle& ds = layer == 0 ? run.r : *run.s;
  ParseStats& parseStats = layer == 0 ? run.stats.parseR : run.stats.parseS;
  io::File file = io::File::open(comm, run.volume, ds.path, run.cfg.ioHints);
  PartitionReader reader(comm, file, ds.partition, run.cfg.stream.chunkBytes, ds.format,
                         run.cfg.stream.memoryBudget);

  std::string text;
  while (true) {
    const double t0 = comm.clock().now();
    const bool more = reader.next(text);
    phases.read += comm.clock().now() - t0;
    if (!more) break;
    const double readDoneAt = comm.clock().now();
    obs::traceSpanAt("read", t0, readDoneAt);

    geom::GeometryBatch chunk;
    ParseTiming pt;
    const ParseStats ps = ds.format->parseChunk(text, chunk, &run.pool, &pt);
    if (run.pool.threads() > 1) {
      phases.workerCpu += pt.cpuSum;
      phases.workerCritical += pt.critical;
    }
    parseStats.records += ps.records;
    parseStats.badRecords += ps.badRecords;
    parseStats.bytes += ps.bytes;
    if (run.overlap) {
      run.prep[layer].push_back({readDoneAt, pt.critical});
    } else {
      const double p0 = comm.clock().now();
      comm.clock().advanceBy(pt.critical);
      obs::traceSpanAt("parse", p0, comm.clock().now());
      phases.parse += pt.critical;
    }
    run.localBounds.expandToInclude(chunk.bounds());
    if (run.pilot) run.pilot->observe(chunk);
    run.ckpt.logChunk(layer, reader.lastRanges(), text);
    run.stage[layer].push(std::move(chunk));
  }
  (layer == 0 ? run.stats.ioR : run.stats.ioS) = reader.counters();
}

/// Steps 1+2 for both layers, then seal the chunk log.
void ingest(Run& run) {
  ingestLayer(run, 0);
  if (run.s != nullptr) ingestLayer(run, 1);
  run.ckpt.sealIngest();
}

/// Every rank's pilot samples in rank order: counts allgathered,
/// envelopes gathered to rank 0 and broadcast back, so every rank sees
/// the identical sample sequence and builds the identical map and plan
/// with no further agreement round (DESIGN.md §13).
std::vector<geom::Envelope> sharePilotSamples(mpi::Comm& comm, const PilotSampler& pilot) {
  const int p = comm.size();
  const std::uint64_t mine = pilot.envelopes.size();
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(p), 0);
  comm.allgather(&mine, 1, mpi::Datatype::uint64(), counts.data());
  std::uint64_t totalSamples = 0;
  std::vector<int> recvCounts(static_cast<std::size_t>(p), 0);
  std::vector<int> displs(static_cast<std::size_t>(p), 0);
  for (int rk = 0; rk < p; ++rk) {
    displs[static_cast<std::size_t>(rk)] = static_cast<int>(totalSamples * 4);
    recvCounts[static_cast<std::size_t>(rk)] = static_cast<int>(counts[static_cast<std::size_t>(rk)] * 4);
    totalSamples += counts[static_cast<std::size_t>(rk)];
  }
  std::vector<double> flat(static_cast<std::size_t>(mine) * 4);
  for (std::size_t i = 0; i < pilot.envelopes.size(); ++i) {
    const geom::Envelope& e = pilot.envelopes[i];
    flat[i * 4 + 0] = e.minX();
    flat[i * 4 + 1] = e.minY();
    flat[i * 4 + 2] = e.maxX();
    flat[i * 4 + 3] = e.maxY();
  }
  std::vector<double> all(static_cast<std::size_t>(totalSamples) * 4);
  comm.gatherv(flat.data(), static_cast<int>(flat.size()), mpi::Datatype::float64(), all.data(),
               recvCounts.data(), displs.data(), 0);
  comm.bcast(all.data(), static_cast<int>(all.size()), mpi::Datatype::float64(), 0);
  std::vector<geom::Envelope> samples;
  samples.reserve(static_cast<std::size_t>(totalSamples));
  for (std::size_t i = 0; i < static_cast<std::size_t>(totalSamples); ++i) {
    const geom::Envelope e(all[i * 4 + 0], all[i * 4 + 1], all[i * 4 + 2], all[i * 4 + 3]);
    if (!e.isNull()) samples.push_back(e);
  }
  return samples;
}

/// Step 3: the global grid via MPI_UNION of local MBRs (chunked parsing
/// folded every chunk's bounds into localBounds, so the union is
/// identical to a whole-batch scan), the partition map (DESIGN.md §13)
/// and the data-round schedule. The schedule is fixed up front (the
/// counts derive from the staged chunks, allreduced): the kill point and
/// the checkpoint epochs are defined on the global data-round index —
/// layer R's rounds first, then layer S's — and recovery replays against
/// the same schedule.
void planCells(Run& run) {
  FrameworkStats& stats = run.stats;
  const int p = run.comm.size();
  stats.grid = buildGlobalGrid(run.comm, run.localBounds, run.cfg.gridCells);
  stats.partition = PartitionMap::uniform(stats.grid);
  if (run.pilot) {
    const std::vector<geom::Envelope> samples = sharePilotSamples(run.comm, *run.pilot);
    stats.partition = buildPartitionMap(run.cfg.partition, stats.grid, samples, p);
    // Plan with the measured run size: parsed records scale the sampled
    // loads; parsed bytes per record price the predicted migration.
    std::uint64_t localSize[2] = {stats.parseR.records + stats.parseS.records,
                                  stats.parseR.bytes + stats.parseS.bytes};
    std::uint64_t runSize[2] = {0, 0};
    run.comm.allreduce(localSize, runSize, 2, mpi::Datatype::uint64(), mpi::Op::sum());
    const double bytesPerRecord =
        runSize[0] == 0 ? 256.0 : static_cast<double>(runSize[1]) / static_cast<double>(runSize[0]);
    stats.plan = planPartition(stats.partition, samples, p, runSize[0], bytesPerRecord);
  }
  const PartitionMap& map = stats.partition;
  if (run.cfg.rtreeCellLocator) run.locator.emplace(stats.grid);
  if (run.ckpt.enabled()) {
    run.ckpt.setPartitionMap(encodePartitionMap(map));
    run.rrOwner.resize(static_cast<std::size_t>(map.cellCount()));
    for (int c = 0; c < map.cellCount(); ++c) {
      run.rrOwner[static_cast<std::size_t>(c)] = roundRobinOwner(c, p);
    }
  }

  run.rounds[0] = allreduceMaxU64(run.comm, run.stage[0].pending());
  run.rounds[1] = run.s != nullptr ? allreduceMaxU64(run.comm, run.stage[1].pending()) : 0;
  MVIO_CHECK(run.failures.lastKillRound <= run.rounds[0] + run.rounds[1],
             "kill point lies beyond the data-round schedule");
}

/// Charge one round's prep — the chunk's deferred parse (round overlap
/// only) plus its grid projection — to the rank clock.
void chargePrep(Run& run, int layer, bool hadChunk, double projectSeconds) {
  mpi::Comm& comm = run.comm;
  PhaseBreakdown& phases = run.stats.phases;
  if (!run.overlap) {
    const double pj0 = comm.clock().now();
    comm.clock().advanceBy(projectSeconds);
    obs::traceSpanAt("partition", pj0, comm.clock().now());
    phases.partition += projectSeconds;
    return;
  }
  // Pipeline recurrence: the chunk's prep (deferred parse + projection)
  // starts once the prep stage is free, its read has landed, and the
  // depth-2 buffer has room — i.e. the exchange two rounds back has
  // completed. Only the part of the prep that outlasts "now" stalls the
  // rank; the rest already hid under earlier exchanges and is credited
  // to `overlapped`.
  double parseSeconds = 0;
  double readDoneAt = 0;
  std::deque<ChunkPrep>& prep = run.prep[layer];
  if (hadChunk && !prep.empty()) {
    parseSeconds = prep.front().prepSeconds;
    readDoneAt = prep.front().readDoneAt;
    prep.pop_front();
  }
  const double now0 = comm.clock().now();
  const double prepStart = std::max({run.prepDoneAt, readDoneAt, run.commDonePrev2});
  run.prepDoneAt = prepStart + parseSeconds + projectSeconds;
  const double exposed = std::max(0.0, run.prepDoneAt - now0);
  comm.clock().advanceTo(run.prepDoneAt);
  const double prepTotal = parseSeconds + projectSeconds;
  // The prep stage runs concurrently with earlier exchanges — it gets its
  // own lane so the overlap is visible in the trace, split into the phase
  // names the breakdown charges it to.
  if (obs::ObsContext& octx = obs::obsContext(); octx.tracer != nullptr) {
    const int lane = octx.tracer->prepLane();
    if (parseSeconds > 0) {
      obs::traceSpanAtLane(lane, "parse", prepStart, prepStart + parseSeconds);
    }
    if (projectSeconds > 0) {
      obs::traceSpanAtLane(lane, "partition", prepStart + parseSeconds, run.prepDoneAt);
    }
  }
  if (prepTotal > 0) {
    phases.parse += exposed * (parseSeconds / prepTotal);
    phases.partition += exposed * (projectSeconds / prepTotal);
    phases.overlapped += prepTotal - exposed;
  }
}

/// One exchange round, its clock delta charged to comm (buffer management
/// + transfer, the paper's communication time), traced as one `comm` span
/// and counted, with its received bytes sampled.
geom::GeometryBatch exchangeRound(Run& run, geom::GeometryBatch&& outgoing, bool last) {
  const double t0 = run.comm.clock().now();
  const std::uint64_t wire0 = run.stats.exchange.bytesReceived;
  geom::GeometryBatch got =
      exchangeByCell(run.comm, std::move(outgoing), run.owner, run.cfg.windowPhases,
                     run.stats.partition.cellCount(), &run.stats.exchange, {}, last, &run.xscratch);
  const double t1 = run.comm.clock().now();
  run.stats.phases.comm += t1 - t0;
  run.stats.phases.rounds += 1;
  obs::traceSpanAt("comm", t0, t1);
  if (obs::metricsOn()) {
    const std::uint64_t roundBytes = run.stats.exchange.bytesReceived - wire0;
    obs::addCount("exchange.bytes", roundBytes);
    obs::observe("exchange.round_bytes", static_cast<double>(roundBytes));
  }
  return got;
}

/// Add one round's arrivals to the owned store. Under round overlap the
/// store-flush stage runs concurrently: the owned store's segment flushes
/// for round N−1 run while round N's exchange is on the wire; the
/// deferred charges queue on storeDoneAt and the residue is settled
/// before finalize.
void storeArrivals(Run& run, CellStore& owned, geom::GeometryBatch&& got) {
  if (!run.overlap) {
    owned.add(std::move(got));
    return;
  }
  double banked = 0;
  run.spiller.defer = &banked;
  owned.add(std::move(got));
  run.spiller.defer = nullptr;
  const double flushStart = std::max(run.storeDoneAt, run.comm.clock().now());
  run.storeDoneAt = flushStart + banked;
  run.spillBanked += banked;
  if (obs::ObsContext& octx = obs::obsContext(); octx.tracer != nullptr && banked > 0) {
    obs::traceSpanAtLane(octx.tracer->flushLane(), "spill", flushStart, run.storeDoneAt);
  }
}

/// Failure detection + cascading recovery at the first kill round
/// (DESIGN.md §9, §11). Each iteration is one detection allgather over
/// the current communicator (the simulation's failure detector): newly
/// dead ranks leave with their volatile state, the survivors shrink the
/// communicator and run a recovery pass. Ranks scheduled to die *during*
/// that pass (or at a later round — everything past the first kill is
/// recovery territory) are caught by the next iteration, and the loop
/// only exits on an allgather that reports a stable survivor set. The
/// seal-scan cache makes the repeated recovery-point scans free; seeded
/// LPT re-homing composes across the shrinks.
void detectAndRecover(Run& run) {
  mpi::Comm& comm = run.comm;
  FrameworkStats& stats = run.stats;
  recovery::SealScanCache sealCache;
  std::vector<int> cumulativeDead;
  std::vector<int> priorOwner;
  bool alive = true;
  for (std::size_t wave = 0;; ++wave) {
    if (wave == run.failures.myWave) alive = false;
    const std::int32_t mine = alive ? comm.worldRank() : ~comm.worldRank();
    std::vector<std::int32_t> flags(static_cast<std::size_t>(run.active.size()), 0);
    run.active.allgather(&mine, 1, mpi::Datatype::int32(), flags.data());
    std::vector<int> survivors;
    std::vector<int> newlyDead;
    for (const std::int32_t f : flags) {
      (f >= 0 ? survivors : newlyDead).push_back(f >= 0 ? f : ~f);
    }
    if (newlyDead.empty()) break;  // stable survivor set
    MVIO_WARN("recovery", newlyDead.size() << " rank(s) failed at round " << run.globalRound
                                           << "; survivors: " << survivors.size());
    mpi::Comm shrunk = run.active.split(alive ? 1 : 0, run.active.rank());
    if (!alive) {
      stats.recovery.died = true;
      return;
    }
    run.active = shrunk;
    std::sort(newlyDead.begin(), newlyDead.end());
    cumulativeDead.insert(cumulativeDead.end(), newlyDead.begin(), newlyDead.end());
    std::sort(cumulativeDead.begin(), cumulativeDead.end());

    recovery::RecoveryContext ctx;
    ctx.checkpoint = run.ckptCfg;
    ctx.worldSize = comm.size();
    ctx.deadRanks = cumulativeDead;
    ctx.newlyDead = newlyDead;
    ctx.survivorWorld = survivors;
    ctx.priorOwner = priorOwner;
    ctx.failRound = run.failures.firstKillRound;
    // The first pass replays every round past the boundary, so for
    // cascading passes the survivors already hold all rounds.
    ctx.deliveredRound = priorOwner.empty() ? ctx.failRound : run.rounds[0] + run.rounds[1];
    ctx.roundsPerLayer[0] = run.rounds[0];
    ctx.roundsPerLayer[1] = run.rounds[1];
    ctx.datasets[0] = &run.r;
    ctx.datasets[1] = run.s;
    ctx.grid = &stats.grid;
    ctx.map = &stats.partition;
    ctx.locator = run.locator ? &*run.locator : nullptr;
    ctx.sealCache = &sealCache;
    if (priorOwner.empty()) {
      // The pre-empted rounds' own chunks are still staged, parsed.
      ctx.takeStaged = [&run](int layer, geom::GeometryBatch& out) {
        return run.stage[layer].pop(out);
      };
    }
    obs::traceBegin("recovery");
    recovery::RecoveryOutcome outcome =
        recovery::recoverFromFailure(run.active, run.volume, ctx, run.owned[0],
                                     run.s != nullptr ? &run.owned[1] : nullptr, &stats.phases);
    obs::traceEnd("recovery");
    obs::addCount("recovery.restored_records", outcome.stats.restoredRecords);
    obs::addCount("recovery.replayed_records", outcome.stats.replayedRecords);
    obs::addCount("recovery.passes", 1);
    priorOwner = std::move(outcome.cellOwner);
    stats.recovery.recovered = true;
    stats.recovery.deadRanks = cumulativeDead.size();
    stats.recovery.epochUsed = outcome.stats.epochUsed;
    stats.recovery.restoredRecords += outcome.stats.restoredRecords;
    stats.recovery.replayedRecords += outcome.stats.replayedRecords;
    stats.recovery.recoveryPasses += 1;
    run.activeWorld = std::move(survivors);
  }
  stats.cellOwner = std::move(priorOwner);
  run.recovered = true;
}

/// Steps 4+5 for one layer: every round projects the next staged chunk
/// onto its cells, exchanges it and adds the arrivals to the owned
/// store; a streaming schedule closes with the termination round.
/// Returns false when the schedule was cut short — this rank died, or a
/// recovery re-derived every remaining round from the durable log (no
/// further exchanges happen either way).
bool exchangeLayer(Run& run, int layer) {
  mpi::Comm& comm = run.comm;
  FrameworkStats& stats = run.stats;
  CellStore& owned = run.owned[layer];
  const std::uint64_t rounds = run.rounds[layer];
  const bool streaming = run.cfg.stream.chunkBytes > 0;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    obs::traceBegin("round");
    geom::GeometryBatch chunk;
    const bool hadChunk = run.stage[layer].pop(chunk);  // false → empty round for this rank
    double projectSeconds = 0;
    {
      sim::ThreadCpuTimer timer;
      chunk = projectToCells(stats.partition, run.locator ? &*run.locator : nullptr,
                             std::move(chunk));
      projectSeconds = timer.elapsed();
    }
    chargePrep(run, layer, hadChunk, projectSeconds);
    geom::GeometryBatch got =
        exchangeRound(run, std::move(chunk), /*last=*/!streaming && round + 1 == rounds);
    if (run.overlap) {
      run.commDonePrev2 = run.commDonePrev1;
      run.commDonePrev1 = comm.clock().now();
    }
    run.ckpt.noteRound(layer, got);
    storeArrivals(run, owned, std::move(got));
    run.globalRound += 1;
    run.ckpt.maybeCheckpoint(run.globalRound, run.rrOwner);
    if (run.globalRound == run.failures.firstKillRound) {
      detectAndRecover(run);
      obs::traceEnd("round");
      return false;
    }
    obs::traceEnd("round");
  }
  if (streaming) {
    // Termination barrier: an empty round whose header carries
    // kRoundLast on every rank, making "no records this round" and
    // "stream over" distinct on the wire.
    owned.add(exchangeRound(run, geom::GeometryBatch(), /*last=*/true));
  }
  return true;
}

/// A rank killed by the injection hook leaves fail-stop: its volatile
/// state — staged chunks, owned cell stores, scratch spill blobs — dies
/// with it. Only the durable checkpoint blobs it already wrote survive on
/// the volume. Its task never refines and it joins no further collective.
FrameworkStats leaveDead(Run& run) {
  run.spill.clear();
  run.stats.spill = run.spill.stats();
  return std::move(run.stats);
}

/// After the rounds: settle the overlap pipeline and make the stores
/// cell-readable.
void closeRounds(Run& run) {
  FrameworkStats& stats = run.stats;
  // Every staged chunk went out in its round or, after a failure, in the
  // recovery replay of that round.
  MVIO_CHECK(run.stage[0].pending() == 0 && run.stage[1].pending() == 0,
             "staged chunks left over after the exchange rounds");
  if (run.recovered) stats.activeComm = run.active;
  if (run.overlap) {
    // Prep entries never reached by the round loop (a recovery cut the
    // schedule short) were still real parse CPU; account them as hidden.
    for (std::deque<ChunkPrep>& prep : run.prep) {
      for (const ChunkPrep& cp : prep) stats.phases.overlapped += cp.prepSeconds;
      prep.clear();
    }
    // Settle the store-flush stage: whatever deferred spill time outlasts
    // the final exchange is a real stall before refine; the rest hid.
    const double now = run.comm.clock().now();
    const double exposed = std::min(run.spillBanked, std::max(0.0, run.storeDoneAt - now));
    stats.phases.spill += exposed;
    stats.phases.overlapped += run.spillBanked - exposed;
    run.comm.clock().advanceTo(run.storeDoneAt);
  }
  run.owned[0].finalize();
  run.owned[1].finalize();
  stats.localR = run.owned[0].records();
  stats.localS = run.owned[1].records();
}

/// Max/mean per-rank load ratio of a cell → rank assignment (0 when no
/// cell holds a record).
double imbalanceOf(const std::vector<std::uint64_t>& cellLoads, const std::vector<int>& owner,
                   int ranks) {
  std::vector<std::uint64_t> load(static_cast<std::size_t>(ranks), 0);
  std::uint64_t total = 0;
  for (std::size_t c = 0; c < cellLoads.size(); ++c) {
    load[static_cast<std::size_t>(owner[c])] += cellLoads[c];
    total += cellLoads[c];
  }
  const std::uint64_t maxLoad = *std::max_element(load.begin(), load.end());
  const double mean = static_cast<double>(total) / static_cast<double>(ranks);
  return total == 0 ? 0.0 : static_cast<double>(maxLoad) / mean;
}

/// Budget-bounded migration of one layer: leaving cells are extracted
/// (ascending cell order) and shipped in passes of at most one
/// store-budget share of staged outgoing records — one whole cell of
/// slack for a cell larger than the share — so the transfer respects
/// StreamConfig::memoryBudget like every other phase. The passes
/// terminate collectively (a rank with nothing left still joins its
/// peers' remaining rounds). Every cell moves wholly within one pass, so
/// per-cell record order — all any consumer depends on — is identical to
/// the single-pass transfer.
void migrateLayer(Run& run, CellStore& store, const std::vector<int>& newLocal) {
  mpi::Comm& active = run.active;
  std::vector<int> leaving;
  for (const int cell : store.cells()) {
    if (newLocal[static_cast<std::size_t>(cell)] != active.rank()) leaving.push_back(cell);
  }
  const std::uint64_t passBudget = run.storeBudget == 0 ? UINT64_MAX : run.storeBudget;
  std::size_t next = 0;
  while (true) {
    std::vector<geom::GeometryBatch> outgoing(static_cast<std::size_t>(active.size()));
    std::uint64_t staged = 0;
    while (next < leaving.size() && staged < passBudget) {
      const int cell = leaving[next++];
      geom::GeometryBatch extracted = store.extractCell(cell);
      staged += extracted.memoryBytes();
      outgoing[static_cast<std::size_t>(newLocal[static_cast<std::size_t>(cell)])].splice(
          std::move(extracted));
    }
    const std::uint64_t more = allreduceMaxU64(active, next < leaving.size() ? 1 : 0);
    geom::GeometryBatch got = migrateShards(active, std::move(outgoing), kMigrationBlobBytes,
                                            &run.stats.balance.transport);
    store.addMigrated(std::move(got));
    run.stats.balance.migrationPasses += 1;
    if (more == 0) break;
  }
}

/// Step 5b: skew-aware owned-cell rebalancing, on the active (possibly
/// shrunk) communicator. Every rank reduces the global per-cell loads and
/// measures the imbalance; when it clears the adaptive threshold (and,
/// under an adaptive map, the cost gate), all repeat the same
/// deterministic LPT assignment and ship leaving cells point-to-point as
/// checksummed shard blobs.
void rebalance(Run& run) {
  mpi::Comm& active = run.active;
  const int ap = active.size();
  if (!run.cfg.rebalanceCells || ap <= 1) return;
  FrameworkStats& stats = run.stats;
  const PartitionMap& map = stats.partition;
  const int p = run.comm.size();
  const double t0 = active.clock().now();
  obs::traceBegin("migrate");
  const double spillBefore = stats.phases.spill;
  stats.balance.ownedRecordsBefore = stats.localR + stats.localS;
  std::vector<std::uint64_t> loads(static_cast<std::size_t>(map.cellCount()), 0);
  for (const CellStore& store : run.owned) store.accumulateCellLoads(loads);
  std::vector<std::uint64_t> global(loads.size(), 0);
  active.allreduce(loads.data(), global.data(), static_cast<int>(loads.size()),
                   mpi::Datatype::uint64(), mpi::Op::sum());

  if (run.activeWorld.empty()) {
    run.activeWorld.resize(static_cast<std::size_t>(ap));
    std::iota(run.activeWorld.begin(), run.activeWorld.end(), 0);
  }
  std::vector<int> worldToLocal(static_cast<std::size_t>(p), -1);
  for (int local = 0; local < ap; ++local) {
    const int world = run.activeWorld[static_cast<std::size_t>(local)];
    worldToLocal[static_cast<std::size_t>(world)] = local;
  }
  // Current ownership as active-local ranks: the recovery map when one
  // ran, round-robin over the launch size otherwise.
  std::vector<int> currentLocal(static_cast<std::size_t>(map.cellCount()), 0);
  for (int c = 0; c < map.cellCount(); ++c) {
    const int world = stats.cellOwner.empty() ? roundRobinOwner(c, p)
                                              : stats.cellOwner[static_cast<std::size_t>(c)];
    const int local = worldToLocal[static_cast<std::size_t>(world)];
    MVIO_CHECK(local >= 0, "rebalance: cell owned by a rank outside the active communicator");
    currentLocal[static_cast<std::size_t>(c)] = local;
  }

  // Adaptive trigger: skip the pass — and its wire traffic — when the
  // owned loads are already within the threshold.
  stats.balance.imbalance = imbalanceOf(global, currentLocal, ap);
  obs::setGauge("balance.imbalance_before", stats.balance.imbalance);
  const bool triggered = stats.balance.imbalance >= run.cfg.rebalanceThreshold;
  std::vector<int> proposal;
  bool gated = false;
  if (triggered) proposal = lptAssignCells(global, ap);
  if (triggered && !map.isUniform()) {
    // Adaptive maps price the proposal with the cost model: refine seconds
    // the move would save vs wire seconds it costs at the measured shard
    // size (allreduced, so every rank gates identically), scaled by
    // rebalanceThreshold. Uniform maps keep the ratio-only trigger.
    std::uint64_t localWire[2] = {stats.exchange.bytesReceived, stats.exchange.geometriesReceived};
    std::uint64_t wire[2] = {0, 0};
    active.allreduce(localWire, wire, 2, mpi::Datatype::uint64(), mpi::Op::sum());
    const double bytesPerRecord =
        wire[1] == 0 ? 256.0 : static_cast<double>(wire[0]) / static_cast<double>(wire[1]);
    const RebalanceDecision price = priceRebalance(global, currentLocal, proposal, ap,
                                                   bytesPerRecord, run.cfg.rebalanceThreshold);
    stats.balance.costGainSeconds = price.gainSeconds;
    stats.balance.costMigrateSeconds = price.migrateSeconds;
    gated = !price.worthIt;
  }

  if (!triggered || gated) {
    stats.balance.skipped = true;
    stats.balance.costGated = gated;
    stats.balance.ownedRecordsAfter = stats.balance.ownedRecordsBefore;
    obs::setGauge("balance.imbalance_after", stats.balance.imbalance);
  } else {
    obs::setGauge("balance.imbalance_after", imbalanceOf(global, proposal, ap));
    stats.cellOwner.resize(proposal.size());
    for (std::size_t c = 0; c < proposal.size(); ++c) {
      stats.cellOwner[c] = run.activeWorld[static_cast<std::size_t>(proposal[c])];
      if (proposal[c] != currentLocal[c]) stats.balance.cellsMoved += 1;
    }
    migrateLayer(run, run.owned[0], proposal);
    if (run.s != nullptr) migrateLayer(run, run.owned[1], proposal);

    stats.balance.ownedRecordsAfter = run.owned[0].records() + run.owned[1].records();
    stats.phases.migrateBytes = stats.balance.transport.bytesSent;
    stats.phases.migrateRounds = stats.balance.transport.blobsSent;
    obs::addCount("migrate.bytes", stats.balance.transport.bytesSent);
    obs::addCount("migrate.blobs", stats.balance.transport.blobsSent);
  }
  // Shard reloads during cell extraction charged themselves to the spill
  // phase; subtract them so total() counts the time once.
  stats.phases.migrate += (active.clock().now() - t0) - (stats.phases.spill - spillBefore);
  obs::traceEnd("migrate");
}

/// One staged cell of the refine loop: its two record spans and, in the
/// streaming regime, the owned batches they view.
struct CellWork {
  int cell = 0;
  geom::GeometryBatch r, s;  // staged owned batches (streaming)
  geom::BatchSpan spanR, spanS;
};

/// Cut a group into `workers` contiguous ascending-cell blocks,
/// proportional to record weight: block t is [cut[t], cut[t + 1]).
std::vector<std::size_t> blockCuts(const std::vector<CellWork>& group, std::size_t workers) {
  const auto weight = [](const CellWork& w) { return w.spanR.size() + w.spanS.size() + 1; };
  std::uint64_t totalWeight = 0;
  for (const CellWork& w : group) totalWeight += weight(w);
  std::vector<std::size_t> cut(workers + 1, group.size());
  cut[0] = 0;
  std::uint64_t prefix = 0;
  std::size_t i = 0;
  for (std::size_t t = 0; t + 1 < workers; ++t) {
    const std::uint64_t target = totalWeight * (t + 1) / workers;
    while (i < group.size() && prefix < target) prefix += weight(group[i++]);
    cut[t + 1] = i;
  }
  return cut;
}

/// Refine one group of staged cells (DESIGN.md §10). Worker clones each
/// refine one block of blockCuts and merge back in worker order, which
/// replays the ascending-cell order: bit-identical at any thread count.
/// Without clones the task refines the whole group directly on the rank
/// thread (through a one-thread pool its CPU would be charged twice).
/// Returns the region's critical path to charge on top of the rank
/// thread's CPU; `regionStart` places the worker-lane spans.
double refineGroup(Run& run, std::vector<CellWork>& group, double regionStart) {
  // Workers have no obs context: per-cell seconds land in a plain array
  // each worker owns a disjoint slice of; the rank thread feeds the
  // histogram (and the worker lanes) after the region.
  const bool measureCells = obs::metricsOn();
  std::vector<double> cellSeconds;
  if (measureCells) cellSeconds.assign(group.size(), 0.0);
  const auto refineBlock = [&](RefineTask& worker, std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const sim::ThreadCpuTimer cellTimer;
      refineThroughMap(worker, run.stats.partition, group[k].cell, group[k].spanR, group[k].spanS);
      if (measureCells) cellSeconds[k] = cellTimer.elapsed();
    }
  };
  double critical = 0;
  if (run.refineWorkers.empty()) {
    refineBlock(run.task, 0, group.size());
  } else {
    const std::vector<std::size_t> cut = blockCuts(group, run.refineWorkers.size());
    const util::PoolTiming pt = run.pool.runOnWorkers([&](int t) {
      const auto w = static_cast<std::size_t>(t);
      refineBlock(*run.refineWorkers[w], cut[w], cut[w + 1]);
    });
    obs::traceWorkerSpans("compute", regionStart, pt.perWorker);
    critical = pt.cpuMax;
    run.stats.phases.workerCpu += pt.cpuSum;
    run.stats.phases.workerCritical += pt.cpuMax;
    for (const auto& worker : run.refineWorkers) run.task.mergeWorker(*worker);
  }
  for (const double cs : cellSeconds) obs::observe("refine.cell_seconds", cs);
  if (run.owned[0].streaming()) {
    // Per-cell adoption in ascending order, after the merge so the task
    // sees results before their backing arenas move.
    for (CellWork& w : group) run.task.adoptBatches(std::move(w.r), std::move(w.s));
  }
  group.clear();
  return critical;
}

/// Step 6: cell-major refine in ascending cell-id order, cells staged
/// into groups. Resident regime: one group of zero-copy spans, the owned
/// batches adopted whole at the end. Streaming regime: each cell decoded
/// once into batches adopted cell by cell; a group closes at
/// refineGroupBytes (0 without worker clones: one cell per group).
void refine(Run& run) {
  FrameworkStats& stats = run.stats;
  CellStore& ownedR = run.owned[0];
  CellStore& ownedS = run.owned[1];
  const std::uint64_t reloadBase = ownedR.reloadBytes() + ownedS.reloadBytes();
  // Rank-thread CPU (loop bookkeeping, group assembly, merges, adoption,
  // and the refine itself when the task is its own worker) is measured by
  // mainTimer; each pool region adds its critical path on top.
  const double blockStart = run.comm.clock().now();
  obs::traceBegin("compute");
  const sim::ThreadCpuTimer mainTimer;
  double workerSeconds = 0;
  const bool streaming = ownedR.streaming();
  const std::vector<int> cells = mergeCellLists(ownedR.cells(), ownedS.cells());
  stats.cellsOwned = cells.size();
  std::vector<CellWork> group;
  if (!streaming) group.reserve(cells.size());
  std::uint64_t groupBytes = 0;
  // Staged streaming batches are viewed whole, through one 0..n-1 table.
  std::vector<std::uint32_t> identity;
  const auto dispatch = [&] {
    if (group.empty()) return;
    if (streaming) {
      // Spans are built only once the group stops growing: vector growth
      // moves the CellWork structs and the identity table.
      for (CellWork& w : group) {
        w.spanR = geom::BatchSpan(&w.r, identity.data(), w.r.size());
        w.spanS = geom::BatchSpan(&w.s, identity.data(), w.s.size());
      }
    }
    // Worker-lane spans start where the final advanceBy(main + worker
    // seconds) places the region: block start plus main CPU so far plus
    // earlier regions' critical paths.
    workerSeconds += refineGroup(run, group, blockStart + mainTimer.elapsed() + workerSeconds);
    groupBytes = 0;
  };
  for (const int cell : cells) {
    CellWork work;
    work.cell = cell;
    work.spanR = ownedR.cellSpan(cell);
    work.spanS = ownedS.cellSpan(cell);
    if (streaming) {
      work.r = ownedR.takeCellBatch();
      work.s = ownedS.takeCellBatch();
      groupBytes += work.r.memoryBytes() + work.s.memoryBytes();
      while (identity.size() < std::max(work.r.size(), work.s.size())) {
        identity.push_back(static_cast<std::uint32_t>(identity.size()));
      }
    }
    group.push_back(std::move(work));
    stats.refinePeakBytes = std::max(stats.refinePeakBytes,
                                     ownedR.trackedBytes() + ownedS.trackedBytes() + groupBytes);
    if (streaming && groupBytes >= run.refineGroupBytes) dispatch();
  }
  dispatch();
  if (!streaming) {
    // Whole-run adoption, as in the one-shot pipeline (records migrated
    // away by rebalancing are kNoCell-tombstoned).
    run.task.adoptBatches(ownedR.takeResidentBatch(), ownedS.takeResidentBatch());
  }
  const double mainSeconds = mainTimer.elapsed();
  run.comm.clock().advanceBy(mainSeconds + workerSeconds);
  stats.phases.compute += mainSeconds + workerSeconds;
  obs::traceEnd("compute");

  stats.refinePeakBytes = std::max({stats.refinePeakBytes, ownedR.peakBytes(), ownedS.peakBytes()});
  // Only the refine loop's reloads; migration-extraction reloads are
  // priced in the spill phase and counted in FrameworkStats::spill.
  stats.phases.refineSpillBytes = ownedR.reloadBytes() + ownedS.reloadBytes() - reloadBase;
  ownedR.releaseBlobs();
  ownedS.releaseBlobs();
  stats.spill = run.spill.stats();
  run.spill.clear();
}

}  // namespace

geom::GeometryBatch projectToCells(const PartitionMap& map, const CellLocator* locator,
                                   geom::GeometryBatch&& geoms) {
  const std::size_t n = geoms.size();
  std::vector<int> cells;
  for (std::size_t i = 0; i < n; ++i) {
    cells.clear();
    if (locator != nullptr) {
      // The locator resolves uniform cells; adaptive maps translate its
      // (already sorted) result into partition ids in place.
      locator->overlappingCells(geoms.envelope(i), cells);
      map.translateCells(cells, 0);
    } else {
      map.overlappingCells(geoms.envelope(i), cells);
    }
    if (cells.empty()) {
      geoms.setCell(i, geom::GeometryBatch::kNoCell);
      continue;
    }
    geoms.setCell(i, cells[0]);
    for (std::size_t k = 1; k < cells.size(); ++k) geoms.appendRecordFrom(geoms, i, cells[k]);
  }
  return std::move(geoms);
}

FrameworkStats runFilterRefine(mpi::Comm& comm, pfs::Volume& volume, const DatasetHandle& r,
                               const DatasetHandle* s, const FrameworkConfig& cfg, RefineTask& task) {
  Run run(comm, volume, r, s, cfg, task, checkConfig(comm, r, s, cfg));
  ingest(run);     // 1+2: partitioned read, parse
  planCells(run);  // 3: global grid, partition map, round schedule
  // 4+5: projection + all-to-all exchange, one layer's rounds at a time.
  if (exchangeLayer(run, 0) && s != nullptr) exchangeLayer(run, 1);
  if (run.stats.recovery.died) return leaveDead(run);
  closeRounds(run);
  rebalance(run);  // 5b
  refine(run);     // 6
  return std::move(run.stats);
}

}  // namespace mvio::core
