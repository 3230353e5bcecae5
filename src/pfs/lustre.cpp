#include "pfs/lustre.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mvio::pfs {

LustreModel::LustreModel(const LustreParams& params) : params_(params) {
  MVIO_CHECK(params_.osts >= 1, "need at least one OST");
  MVIO_CHECK(params_.nodes >= 1, "need at least one node");
  osts_.assign(static_cast<std::size_t>(params_.osts), QueueStation{});
  clients_.assign(static_cast<std::size_t>(params_.nodes), QueueStation{});
}

double LustreModel::read(int node, const StripeSettings& stripe, std::uint64_t offset,
                         std::uint64_t bytes, double start) {
  MVIO_CHECK(node >= 0 && node < params_.nodes, "node id out of model range");
  MVIO_CHECK(bytes > 0, "zero-byte read");
  const int stripeCount = std::min(stripe.stripeCount, params_.osts);
  MVIO_CHECK(stripeCount >= 1, "stripe count must be >= 1");
  const std::uint64_t stripeSize = stripe.stripeSize;
  MVIO_CHECK(stripeSize > 0, "stripe size must be > 0");

  std::lock_guard<std::mutex> lock(mutex_);

  double completion = start;

  // Decompose the byte range into per-stripe chunks and queue each on its
  // OST. The RPC for chunk s cannot be serviced before `start`.
  const std::uint64_t firstStripe = offset / stripeSize;
  const std::uint64_t lastStripe = (offset + bytes - 1) / stripeSize;
  for (std::uint64_t s = firstStripe; s <= lastStripe; ++s) {
    const std::uint64_t chunkBegin = std::max(offset, s * stripeSize);
    const std::uint64_t chunkEnd = std::min(offset + bytes, (s + 1) * stripeSize);
    const std::uint64_t chunkBytes = chunkEnd - chunkBegin;
    auto& ost = osts_[static_cast<std::size_t>(s % static_cast<std::uint64_t>(stripeCount))];

    const double serviceBase = params_.ostLatency + static_cast<double>(chunkBytes) / params_.ostBandwidth;
    // Backlog-sensitive service: a request arriving at a busy OST pays an
    // extra congestionFactor fraction of the backlog it queues behind (RPC
    // congestion). Being proportional to backlog, the penalty is invariant
    // under proportional scaling of file, stripe and latency sizes.
    const double congestion = params_.congestionFactor * ost.backlog(start);
    completion = std::max(completion, ost.serve(start, serviceBase + congestion));
  }

  // Client cap: every byte this node pulls is serialized through its
  // Lustre client.
  completion = std::max(completion, clients_[static_cast<std::size_t>(node)].serve(
                                        start, static_cast<double>(bytes) / params_.clientBandwidth));

  // Backbone cap.
  completion = std::max(
      completion, backbone_.serve(start, static_cast<double>(bytes) / params_.aggregateBandwidth));

  return completion;
}

}  // namespace mvio::pfs
