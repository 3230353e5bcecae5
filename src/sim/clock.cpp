#include "sim/clock.hpp"

#include <atomic>

namespace mvio::sim {

namespace {

std::atomic<std::uint64_t> gTimeline{0};

double sampleCpuOnce() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double sampleWallOnce() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Spin until the thread-CPU clock advances twice and report the step.
/// Bounded by 100 ms of wall time; falls back to 10 ms (the coarsest tick
/// accounting seen in the wild) when the clock never moves.
double measureGranularity() {
  const double wallLimit = sampleWallOnce() + 0.1;
  const double t0 = sampleCpuOnce();
  double t1 = t0;
  while (t1 <= t0) {
    if (sampleWallOnce() > wallLimit) return 0.010;
    t1 = sampleCpuOnce();
  }
  double t2 = t1;
  while (t2 <= t1) {
    if (sampleWallOnce() > wallLimit) return 0.010;
    t2 = sampleCpuOnce();
  }
  const double step = t2 - t1;
  // Clamp to a sane range: a reported sub-microsecond step is treated as
  // a high-resolution clock.
  if (step < 1e-6) return 1e-6;
  if (step > 0.05) return 0.05;
  return step;
}

}  // namespace

double ThreadCpuTimer::granularity() {
  static const double value = measureGranularity();
  return value;
}

std::uint64_t currentTimeline() { return gTimeline.load(std::memory_order_relaxed); }

void beginTimeline() { gTimeline.fetch_add(1, std::memory_order_relaxed); }

}  // namespace mvio::sim
