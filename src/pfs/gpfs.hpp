#pragma once
// GPFS-like storage model. Differences from Lustre that matter to the
// paper's GPFS experiments (ROGER cluster, §5.1.2):
//  * No user-visible striping: data is distributed in fixed filesystem
//    blocks round-robin across NSD servers; per-file StripeSettings are
//    ignored ("we did not have the permission to change those parameters;
//    we used the default filesystem configuration").
//  * Client throughput rides the 10 GbE uplink (~1.1 GB/s effective).
//
// The queueing mechanics are shared with the Lustre model: NSD servers are
// latency+bandwidth stations, nodes have client caps, and the backbone has
// an aggregate cap. This gives Fig 14's "scales up to ~80 processes, then
// flattens" behaviour: parsing shrinks with process count while the I/O
// floor is fixed by the aggregate and per-node caps.

#include <mutex>
#include <vector>

#include "pfs/storage_model.hpp"

namespace mvio::pfs {

struct GpfsParams {
  int nsdServers = 16;                ///< storage servers
  std::uint64_t fsBlockSize = 8ull << 20;  ///< filesystem block size
  double serverBandwidth = 0.8e9;     ///< per-server service rate, bytes/s
  double serverLatency = 0.8e-3;      ///< per-request latency, s
  double clientBandwidth = 1.1e9;     ///< per-node cap (10 GbE uplink)
  double aggregateBandwidth = 4.5e9;  ///< backbone cap
  int nodes = 16;
};

class GpfsModel final : public StorageModel {
 public:
  explicit GpfsModel(const GpfsParams& params);

  double read(int node, const StripeSettings& stripe, std::uint64_t offset, std::uint64_t bytes,
              double start) override;

  [[nodiscard]] int serverCount() const override { return params_.nsdServers; }
  [[nodiscard]] bool supportsStriping() const override { return false; }

  [[nodiscard]] const GpfsParams& params() const { return params_; }

 private:
  GpfsParams params_;
  std::mutex mutex_;
  std::vector<QueueStation> servers_;
  std::vector<QueueStation> clients_;
  QueueStation backbone_;
};

}  // namespace mvio::pfs
