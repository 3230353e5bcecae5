#pragma once
// Virtual time (see DESIGN.md §5).
//
// Every MPI rank carries a Clock. Modelled costs (parallel-filesystem
// service, interconnect transfers) advance it by computed amounts; compute
// phases advance it by *measured* per-thread CPU time so that real parsing
// and join work is accounted honestly even though ranks are threads
// time-sharing two host cores. Message receipt and collectives synchronise
// clocks with max() semantics, which is what makes the per-phase numbers
// printed by the benches behave like the paper's "maximum time among all
// processes for each phase".

#include <cstdint>
#include <ctime>

namespace mvio::sim {

/// Per-rank virtual clock. Not thread-safe by design: exactly one rank
/// thread owns each instance.
class Clock {
 public:
  [[nodiscard]] double now() const { return now_; }

  /// Advance by a modelled duration (>= 0).
  void advanceBy(double seconds) {
    if (seconds > 0) now_ += seconds;
  }

  /// Synchronise forward to `t` (never moves backwards).
  void advanceTo(double t) {
    if (t > now_) now_ = t;
  }

  void reset(double t = 0.0) { now_ = t; }

 private:
  double now_ = 0.0;
};

/// Virtual timelines. Every mpi::Runtime::run starts a new one (its rank
/// clocks restart at 0), and shared state priced in virtual time — the
/// storage model's queue stations — remembers the timeline it last served
/// and clears itself on first use in a later one, so a run never queues
/// behind an earlier run's requests.
[[nodiscard]] std::uint64_t currentTimeline();
/// Start a new timeline (called once per Runtime::run, before any rank
/// thread starts).
void beginTimeline();

/// Measures CPU seconds consumed by the calling thread. Immune to
/// oversubscription: 320 rank threads on 2 cores still each observe only
/// their own CPU time.
///
/// Some kernels/containers account thread CPU time in coarse scheduler
/// quanta (10 ms steps were observed in CI sandboxes). elapsed() therefore
/// returns min(wall, cpu + granularity): wall time upper-bounds true CPU,
/// so the estimate's error is at most one accounting quantum in either
/// direction instead of a full quantum of undercount.
class ThreadCpuTimer {
 public:
  ThreadCpuTimer() { restart(); }

  void restart() {
    startCpu_ = sampleCpu();
    startWall_ = sampleWall();
  }

  /// Estimated CPU-seconds consumed by this thread since restart().
  [[nodiscard]] double elapsed() const {
    const double cpu = sampleCpu() - startCpu_;
    const double wall = sampleWall() - startWall_;
    const double bounded = cpu + granularity();
    return wall < bounded ? wall : bounded;
  }

  /// Measured step size of the thread-CPU clock (cached; ~1 us on normal
  /// kernels, 10 ms under coarse tick accounting).
  static double granularity();

 private:
  static double sampleCpu() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  static double sampleWall() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double startCpu_ = 0.0;
  double startWall_ = 0.0;
};

/// Wall-clock timer for host-side measurements (build times, test guards).
class WallTimer {
 public:
  WallTimer() { restart(); }

  void restart() { start_ = sample(); }
  [[nodiscard]] double elapsed() const { return sample() - start_; }

 private:
  static double sample() {
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_ = 0.0;
};

}  // namespace mvio::sim
