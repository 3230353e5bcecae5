#pragma once
// Cluster topology and interconnect cost model.
//
// A MachineModel maps MPI ranks onto compute nodes (ppn ranks per node) and
// prices point-to-point transfers with the classic alpha-beta model, with
// distinct parameters for intra-node (shared memory) and inter-node
// (network) paths. Collective costs are derived from these in the MPI
// runtime (tree algorithms).
//
// Two presets mirror the paper's testbeds:
//   comet(): SDSC COMET — 24-core Xeon E5-2680v3 nodes, 16 MPI ranks/node,
//            FDR InfiniBand (56 Gb/s), Lustre with 96 OSTs.
//   roger(): NCSA ROGER — 20-core nodes, 20 ranks/node, 10 GbE uplinks,
//            GPFS with default configuration.

#include <cstdint>

#include "util/error.hpp"

namespace mvio::sim {

/// Latency (s) + inverse bandwidth (s/byte) transfer pricing.
struct LinkModel {
  double latency = 1e-6;
  double bytesPerSecond = 1e10;

  [[nodiscard]] double transferSeconds(std::uint64_t bytes) const {
    return latency + static_cast<double>(bytes) / bytesPerSecond;
  }
};

/// One injected fail-stop rank death (FrameworkConfig::failSchedule). The
/// framework consults the schedule at exchange-round boundaries: once
/// `afterRound` (>= 1) data rounds have completed, the rank drops out of
/// the job — its volatile state (staged chunks, owned cell stores,
/// scratch spill blobs) is discarded, exactly as if the node had died.
/// Only durable checkpoint state on the pfs::Volume survives it.
/// `duringRecoveryPass` refines the timing for cascading failures: 0 means
/// the rank dies at the round boundary itself; k >= 1 means it dies while
/// the k-th recovery pass triggered at that boundary is running, so the
/// survivors of pass k detect it afterwards and run pass k+1. Several
/// events may share a boundary.
struct FailureEvent {
  int rank = -1;
  std::uint64_t afterRound = 0;
  int duringRecoveryPass = 0;
};

struct MachineModel {
  int nodes = 1;
  int ranksPerNode = 16;
  LinkModel interNode{2.0e-6, 7.0e9};   // FDR IB default: ~2 us, 7 GB/s
  LinkModel intraNode{3.0e-7, 12.0e9};  // shared-memory copy

  [[nodiscard]] int totalRanks() const { return nodes * ranksPerNode; }

  [[nodiscard]] int nodeOf(int rank) const {
    MVIO_CHECK(rank >= 0 && rank < totalRanks(), "rank out of machine range");
    return rank / ranksPerNode;
  }

  /// Cost of moving `bytes` from rank a to rank b.
  [[nodiscard]] double transferSeconds(int rankA, int rankB, std::uint64_t bytes) const {
    const bool sameNode = nodeOf(rankA) == nodeOf(rankB);
    return (sameNode ? intraNode : interNode).transferSeconds(bytes);
  }

  /// A machine big enough for `ranks` ranks at this preset's ppn.
  static MachineModel comet(int nodes);
  static MachineModel roger(int nodes);
  /// Single-node model used by unit tests (fast links, 1 node).
  static MachineModel testbed(int ranks);
};

}  // namespace mvio::sim
