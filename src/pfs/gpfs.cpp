#include "pfs/gpfs.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mvio::pfs {

GpfsModel::GpfsModel(const GpfsParams& params) : params_(params) {
  MVIO_CHECK(params_.nsdServers >= 1, "need at least one NSD server");
  MVIO_CHECK(params_.nodes >= 1, "need at least one node");
  MVIO_CHECK(params_.fsBlockSize > 0, "filesystem block size must be > 0");
  servers_.assign(static_cast<std::size_t>(params_.nsdServers), QueueStation{});
  clients_.assign(static_cast<std::size_t>(params_.nodes), QueueStation{});
}

double GpfsModel::read(int node, const StripeSettings& /*stripe*/, std::uint64_t offset,
                       std::uint64_t bytes, double start) {
  MVIO_CHECK(node >= 0 && node < params_.nodes, "node id out of model range");
  MVIO_CHECK(bytes > 0, "zero-byte read");

  std::lock_guard<std::mutex> lock(mutex_);

  double completion = start;
  const std::uint64_t blockSize = params_.fsBlockSize;
  const std::uint64_t firstBlock = offset / blockSize;
  const std::uint64_t lastBlock = (offset + bytes - 1) / blockSize;
  for (std::uint64_t b = firstBlock; b <= lastBlock; ++b) {
    const std::uint64_t chunkBegin = std::max(offset, b * blockSize);
    const std::uint64_t chunkEnd = std::min(offset + bytes, (b + 1) * blockSize);
    const std::uint64_t chunkBytes = chunkEnd - chunkBegin;
    auto& server = servers_[static_cast<std::size_t>(b % static_cast<std::uint64_t>(params_.nsdServers))];
    const double service = params_.serverLatency + static_cast<double>(chunkBytes) / params_.serverBandwidth;
    completion = std::max(completion, server.serve(start, service));
  }

  completion = std::max(completion, clients_[static_cast<std::size_t>(node)].serve(
                                        start, static_cast<double>(bytes) / params_.clientBandwidth));
  completion = std::max(
      completion, backbone_.serve(start, static_cast<double>(bytes) / params_.aggregateBandwidth));

  return completion;
}

}  // namespace mvio::pfs
