#include <algorithm>
#include <limits>

#include "pfs/storage_model.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"

namespace mvio::pfs {

namespace {

/// Timeline length bound; beyond this the smallest inter-interval gap is
/// absorbed (marked busy), trading a sliver of spare capacity for O(1)
/// memory. Dense round-structured traffic coalesces long before this.
constexpr std::size_t kMaxIntervals = 128;

}  // namespace

double QueueStation::serve(double start, double service) {
  MVIO_CHECK(service >= 0, "negative service time");
  if (const std::uint64_t now = sim::currentTimeline(); timeline_ != now) {
    busy_.clear();
    timeline_ = now;
  }
  if (service == 0) return start;

  double pos = start;
  double remaining = service;
  std::vector<Interval> pieces;

  std::size_t i = 0;
  while (i < busy_.size() && busy_[i].end <= pos) ++i;
  while (remaining > 0 && i < busy_.size()) {
    const Interval& iv = busy_[i];
    if (iv.begin > pos) {
      const double take = std::min(iv.begin - pos, remaining);
      pieces.push_back({pos, pos + take});
      remaining -= take;
      pos += take;
      if (remaining <= 0) break;
    }
    pos = std::max(pos, iv.end);
    ++i;
  }
  if (remaining > 0) {
    pieces.push_back({pos, pos + remaining});
    pos += remaining;
  }
  const double completion = pos;

  // Merge the new pieces into the sorted timeline, coalescing touching
  // intervals (pieces were carved exactly against existing boundaries).
  std::vector<Interval> merged;
  merged.reserve(busy_.size() + pieces.size());
  std::size_t a = 0, b = 0;
  auto push = [&merged](const Interval& iv) {
    if (!merged.empty() && iv.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, iv.end);
    } else {
      merged.push_back(iv);
    }
  };
  while (a < busy_.size() || b < pieces.size()) {
    if (b >= pieces.size() || (a < busy_.size() && busy_[a].begin <= pieces[b].begin)) {
      push(busy_[a++]);
    } else {
      push(pieces[b++]);
    }
  }
  busy_ = std::move(merged);
  if (busy_.size() > kMaxIntervals) compact();
  return completion;
}

void QueueStation::compact() {
  while (busy_.size() > kMaxIntervals) {
    std::size_t best = 0;
    double bestGap = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i + 1 < busy_.size(); ++i) {
      const double gap = busy_[i + 1].begin - busy_[i].end;
      if (gap < bestGap) {
        bestGap = gap;
        best = i;
      }
    }
    busy_[best].end = busy_[best + 1].end;
    busy_.erase(busy_.begin() + static_cast<std::ptrdiff_t>(best) + 1);
  }
}

double QueueStation::backlog(double start) const {
  if (timeline_ != sim::currentTimeline()) return 0;  // busy_ belongs to an earlier run
  double total = 0;
  for (const auto& iv : busy_) {
    if (iv.end <= start) continue;
    total += iv.end - std::max(iv.begin, start);
  }
  return total;
}

}  // namespace mvio::pfs
