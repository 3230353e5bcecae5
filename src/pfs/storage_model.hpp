#pragma once
// Timing models for parallel filesystems (the "when" of simulated I/O).
//
// A StorageModel prices each contiguous request against shared server
// state: object storage targets (Lustre OSTs) or NSD servers (GPFS) are
// queueing stations with per-request latency and service bandwidth;
// compute nodes have a client-side throughput cap; the storage backbone
// has an aggregate cap. All state updates are atomic under an internal
// mutex so rank threads can issue requests concurrently. Completion times
// are virtual seconds on the caller's sim::Clock timeline; queue state
// lives for one timeline (one Runtime::run) and resets on first use in
// the next.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace mvio::pfs {

/// Work-conserving queueing station used for OSTs, NSD servers, client
/// links and the backbone.
///
/// Rank threads reach the model mutex in host-scheduler order, which can
/// differ from virtual-time order. Any accrual that serializes requests
/// in *arrival* order (busy = max(busy, start) + service) therefore
/// inflates makespans whenever a virtually-late request is processed
/// before virtually-earlier ones. This station instead keeps a timeline
/// of committed busy intervals and schedules each request into the
/// earliest free capacity at or after its start time (earliest-fit).
/// Placement is then order-robust: whichever thread order the host
/// scheduler produces, total committed work and makespans match the
/// virtual-time ordering up to which request occupies which slot.
class QueueStation {
 public:
  /// Queue `service` seconds of work arriving at virtual time `start`;
  /// returns the completion time of its last scheduled piece.
  double serve(double start, double service);

  /// Committed work scheduled at or after `start` (drives congestion).
  [[nodiscard]] double backlog(double start) const;

 private:
  struct Interval {
    double begin;
    double end;
  };
  std::vector<Interval> busy_;  ///< sorted, disjoint committed intervals
  /// sim timeline busy_ was committed on; a request from a later one
  /// (the next Runtime::run) finds the station idle.
  std::uint64_t timeline_ = 0;

  void compact();
};

/// Per-file striping settings (Lustre exposes these to users; GPFS ignores
/// them and uses its filesystem-wide block distribution).
struct StripeSettings {
  std::uint64_t stripeSize = 1ull << 20;  ///< bytes per stripe
  int stripeCount = 4;                    ///< number of OSTs the file spans
};

class StorageModel {
 public:
  virtual ~StorageModel() = default;

  /// Price a contiguous read of [offset, offset+bytes) of a file with the
  /// given striping, issued by compute node `node` at virtual time `start`.
  /// Returns the virtual completion time (>= start).
  virtual double read(int node, const StripeSettings& stripe, std::uint64_t offset, std::uint64_t bytes,
                      double start) = 0;

  /// Price a write the same way (models are read/write symmetric here).
  virtual double write(int node, const StripeSettings& stripe, std::uint64_t offset, std::uint64_t bytes,
                       double start) {
    return read(node, stripe, offset, bytes, start);
  }

  /// Number of storage servers (OSTs / NSD servers); the collective-I/O
  /// aggregator-selection rule needs this.
  [[nodiscard]] virtual int serverCount() const = 0;

  /// Whether users can control striping (true for Lustre, false for GPFS);
  /// drives which MPI-IO hints are honoured.
  [[nodiscard]] virtual bool supportsStriping() const = 0;
};

}  // namespace mvio::pfs
