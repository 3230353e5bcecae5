#pragma once
// Versioned machine-readable run reports (DESIGN.md §14).
//
// A RunReport serializes one bench/run's reduced PhaseBreakdown, scalar
// result values (pair counts, makespans, bandwidths) and the cross-rank
// metric summaries into a single JSON document:
//
//   { "schema": "mvio.run_report", "version": 1, "name": ..., "setup": ...,
//     "phases": { "read": ..., ..., "rounds": ..., ... },
//     "values": { "<key>": <number>, ... },
//     "metrics": [ { "name": ..., "kind": "c|g|h", "count": ...,
//                    "min": ..., "max": ..., "sum": ..., "mean": ...,
//                    "p50": ..., "p99": ... }, ... ] }
//
// The "phases" object is emitted from core::kPhaseFields (phases.hpp),
// the same table PhaseBreakdown::maxAcross and total() loop over, with
// "total" between the time fields and the counters.
//
// capturePhases() is the one reduction path: it calls
// PhaseBreakdown::maxAcross (a single collective) and keeps the reduced
// struct, so a bench table printed from the returned
// reference and the JSON emitted from the report can never disagree.
// scripts/check_bench.py validates the schema and gates CI on tracked
// values against bench/baselines/*.json.

#include <string>
#include <utility>
#include <vector>

#include "core/phases.hpp"
#include "obs/metrics.hpp"

namespace mvio::obs {

struct RunReport {
  static constexpr int kVersion = 1;

  std::string name;   ///< bench/run identifier ("overlap", "fig08", ...)
  std::string setup;  ///< free-text configuration line
  bool hasPhases = false;
  core::PhaseBreakdown phases;  ///< max-reduced across ranks
  std::vector<std::pair<std::string, double>> values;
  std::vector<MetricSummary> metrics;

  /// Reduce `local` across ranks (single collective); rank 0 keeps the
  /// result in the report, every rank gets it returned for table
  /// printing — one reduction feeding both, so they cannot disagree.
  /// Collective; safe to call on a report shared across rank threads.
  core::PhaseBreakdown capturePhases(mpi::Comm& comm, const core::PhaseBreakdown& local);

  /// Aggregate the thread-local metrics registry across ranks into the
  /// report (rank 0 keeps the summaries). Collective.
  void captureMetrics(mpi::Comm& comm);

  void addValue(const std::string& key, double v) { values.emplace_back(key, v); }

  [[nodiscard]] std::string toJson() const;

  /// Write toJson() to `path` on the host filesystem.
  void writeFile(const std::string& path) const;
};

}  // namespace mvio::obs
