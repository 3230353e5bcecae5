#pragma once
// The benchmark's three workloads: what each job runs, the inputs each
// seed generates, and the oracle every job is checked against.
//
// Every job gets a fresh pfs::Volume (and so fresh storage-model queues
// and empty spill/checkpoint namespaces) over the backing stores the
// set-up generated once, so no job queues behind an earlier job's I/O.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/vector_io.hpp"
#include "spans.hpp"

namespace perfbench {

enum class Kind { kJoin, kIndex, kOverlay };

struct WorkloadSpec {
  const char* name;
  Kind kind;
  int ranks;
  int threadsPerRank;
};

/// nullptr when `name` names no workload.
const WorkloadSpec* findWorkload(std::string_view name);

struct Layer {
  std::string path;
  std::shared_ptr<mvio::pfs::BackingStore> data;
  std::uint64_t bytes = 0;
  const mvio::core::FormatReader* format = nullptr;
};

struct Oracle {
  std::vector<mvio::core::JoinPair> pairs;  ///< join: serialJoin result, sorted
  std::uint64_t indexed = 0;  ///< index: records x overlapped grid cells
  std::vector<mvio::geom::Envelope> queries;
  std::vector<std::uint64_t> counts;  ///< index: brute-force count per query
  std::string raster;                 ///< overlay: failure-free uniform one-shot raster bytes
  double totalR = 0, totalS = 0;
};

struct Inputs {
  std::vector<Layer> layers;
  std::uint64_t inputBytes = 0;
  Oracle oracle;
  double serialJoinSeconds = 0;  ///< host time of the single-threaded oracle join
};

/// What one rank reported for one job (from the public call's *Stats).
struct RankOut {
  mvio::core::PhaseBreakdown phases;
  double clockEnd = 0;  ///< rank clock when the job body returned
  bool died = false;
  bool recovered = false;
  std::uint64_t restoredRecords = 0, replayedRecords = 0;
  mvio::pfs::SpillStats spill;
  std::uint64_t refinePeakBytes = 0;
  double imbalance = 0;
  std::uint64_t cellsMoved = 0;
  bool rebalanceSkipped = false;
  bool costGated = false;
  std::uint64_t candidatePairs = 0, globalPairs = 0;
};

struct JobOut {
  std::vector<RankOut> ranks;
  double wallSeconds = 0;
  double cpuSeconds = 0;  ///< user + sys, process-wide
  double sysSeconds = 0;
  long contextSwitches = 0;
  std::string error;  ///< empty when the job ran and matched the oracle

  [[nodiscard]] bool ok() const { return error.empty(); }
  [[nodiscard]] double makespan() const;
  /// Slowest rank's read + parse virtual seconds.
  [[nodiscard]] double ingestSeconds() const;
  [[nodiscard]] double maxPhase(double mvio::core::PhaseBreakdown::*field) const;
};

/// User + sys CPU seconds of the whole process (all threads), from getrusage.
double cpuNow();

/// Generate inputs from `seed` (volumes are per job) and, unless
/// `withOracle` is false, compute the oracle.
Inputs setUp(const WorkloadSpec& w, std::uint64_t seed, bool withOracle = true);

/// One complete pipeline job through the public entry point, checked
/// against the oracle. Never throws: failures land in JobOut::error.
JobOut runJob(const WorkloadSpec& w, const Inputs& in);

/// Host-side counts of one staged job.
struct StageOut {
  double wallSeconds = 0;
  std::string error;
  std::uint64_t exchangeBytes = 0;  ///< bytes sent by all ranks' exchangeByCell calls
  std::uint64_t readBytes = 0;      ///< bytes read by all ranks' PartitionReaders
};

/// The same job decomposed into calls to each module's public functions,
/// with a span around each call (tracer may be null: untraced). Checked
/// against the same oracle. Never throws.
StageOut runStaged(const WorkloadSpec& w, const Inputs& in, Tracer* tracer, int job);

// ---- shared by the job and staged paths ---------------------------------

std::shared_ptr<mvio::pfs::Volume> freshVolume(const WorkloadSpec& w, const Inputs& in);
mvio::sim::MachineModel machineFor(const WorkloadSpec& w);
mvio::core::FrameworkConfig frameworkFor(const WorkloadSpec& w);
mvio::core::DatasetHandle handleFor(const WorkloadSpec& w, const Layer& layer);
/// Contents of a volume file; empty when it does not exist.
std::string fileBytes(mvio::pfs::Volume& volume, const std::string& name);
/// Empty when `pairs` (any order) equals the oracle's pair set.
std::string checkPairs(std::vector<mvio::core::JoinPair> pairs, const Oracle& o);
std::string checkRaster(const std::string& raster, const Oracle& o);
std::string checkCounts(const std::vector<std::uint64_t>& counts, const Oracle& o);

}  // namespace perfbench
