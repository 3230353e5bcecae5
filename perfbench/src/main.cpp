// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// --trace 0 runs complete pipeline jobs one at a time in a closed loop for
// <s> seconds and reports the end-to-end metrics. --trace 1 reports the
// per-layer metrics: counts and virtual seconds from the *Stats of full
// jobs, host times from spans around staged calls into each module, and
// the tracing overhead (traced minus untraced staged job wall). Every job
// is checked against an oracle computed in set-up. The last stdout line is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "util/log.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace perfbench;

constexpr int kSetups = 3;        // set-ups per run; setup_s is the median of their CPU seconds
constexpr int kProbesPerSetup = 3;  // one-job processes per set-up; peak_rss_mb is their median peak

const char* gSelf = nullptr;  // this executable (argv[0]), re-run for memory probes
constexpr int kSpawnSamples = 20;  // empty Runtime::run launches for mpi.spawn_ms
constexpr int kMinJobs = 3;
constexpr std::size_t kMaxStagedPairs = 40;  // bounds the span count of fast staged jobs

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Interquartile range, as Python's statistics.quantiles(n=4) computes it.
double iqr(std::vector<double> v) {
  if (v.size() < 2) return 0;
  std::sort(v.begin(), v.end());
  const auto q = [&](double p) {
    const double m = p * static_cast<double>(v.size() + 1);
    const auto j = static_cast<std::size_t>(std::floor(m));
    const double delta = m - static_cast<double>(j);
    if (j < 1) return v.front();
    if (j >= v.size()) return v.back();
    return v[j - 1] + delta * (v[j] - v[j - 1]);
  };
  return q(0.75) - q(0.25);
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), std::isfinite(value) ? value : 0.0, std::move(unit)});
  }
  void job(const std::string& what, std::uint64_t index, const std::string& error) {
    ++attempted;
    if (error.empty()) return;
    ++failed;
    correct = false;
    std::printf("FAILED %s %llu: %s\n", what.c_str(), static_cast<unsigned long long>(index), error.c_str());
  }
};

std::vector<double> collect(const std::vector<JobOut>& jobs, const std::function<double(const JobOut&)>& f) {
  std::vector<double> v;
  v.reserve(jobs.size());
  for (const JobOut& j : jobs) v.push_back(f(j));
  return v;
}

/// The highest percentile of `v` with at least ten samples beyond it.
struct Tail {
  double value = 0, percentile = 0;
  std::size_t beyond = 0, samples = 0;
};

Tail tailOf(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t idx = v.size() > 10 ? v.size() - 11 : v.size() - 1;
  t.value = v[idx];
  t.percentile = 100.0 * static_cast<double>(idx + 1) / static_cast<double>(v.size());
  t.beyond = v.size() - 1 - idx;
  return t;
}

void printTail(const Tail& t) {
  std::printf("job_wall_s_tail is p%.1f: %zu of %zu jobs beyond it\n", t.percentile, t.beyond, t.samples);
}

double sumRanks(const JobOut& j, const std::function<double(const RankOut&)>& f) {
  double s = 0;
  for (const RankOut& r : j.ranks) s += f(r);
  return s;
}

double maxRanks(const JobOut& j, const std::function<double(const RankOut&)>& f) {
  double m = 0;
  for (const RankOut& r : j.ranks) m = std::max(m, f(r));
  return m;
}

/// Peak RSS of a fresh process (this executable in --probe mode) that
/// generates the workload's inputs and runs one job: a job's footprint as
/// its own MPI process would have it, not the high-water mark of every
/// earlier job's buffers in one long-lived process. NaN when the probe
/// process fails.
double probeRssMb(const WorkloadSpec& w, std::uint64_t seed) {
  const double failed = std::nan("");
  int fds[2];
  if (pipe(fds) != 0) return failed;
  std::fflush(nullptr);
  const pid_t pid = fork();  // no threads are running here: every Runtime::run has joined
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return failed;
  }
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    const std::string seedText = std::to_string(seed);
    char* args[] = {const_cast<char*>(gSelf), const_cast<char*>("--probe"), const_cast<char*>(w.name),
                    const_cast<char*>(seedText.c_str()), nullptr};
    execv(gSelf, args);
    _exit(127);
  }
  close(fds[1]);
  std::string text;
  char buf[256];
  for (ssize_t k; (k = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (k < 0) {
      if (errno == EINTR) continue;
      break;
    }
    text.append(buf, static_cast<std::size_t>(k));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || text.empty()) return failed;
  return std::atof(text.c_str());
}

/// --probe mode: inputs only (no oracle), one job, print peak RSS in MB.
int probe(const WorkloadSpec& w, std::uint64_t seed) {
  const Inputs in = setUp(w, seed, /*withOracle=*/false);
  runJob(w, in);
  std::printf("%.6f\n", peakRssMb());
  return 0;
}

// ---- --trace 0: end-to-end ---------------------------------------------

Result endToEnd(const WorkloadSpec& w, std::uint64_t seed, double seconds) {
  Result res;
  // Each set-up ends with an in-process warm-up job. Its cost is the
  // process CPU (user + sys) it takes: set-up wall time follows the VM's
  // CPU steal, which stalls the oracle's and the warm-up's four ranks at
  // every collective. After it, untimed, probe processes each run one
  // job: the median of their peak RSS is the memory metric (now and then
  // a job's peak is 11 MB higher, with the timing of its ranks' reader
  // buffers, so one probe is not enough).
  std::vector<double> setups, setupWalls, rss;
  Inputs in;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = hostNow();
    const double cpu0 = cpuNow();
    in = setUp(w, seed);
    const JobOut warm = runJob(w, in);
    setups.push_back(cpuNow() - cpu0);
    setupWalls.push_back(hostNow() - t0);
    res.job("warm-up job", static_cast<std::uint64_t>(k), warm.error);
    for (int p = 0; p < kProbesPerSetup; ++p) {
      const double mb = probeRssMb(w, seed);
      res.job("memory-probe process", static_cast<std::uint64_t>(k * kProbesPerSetup + p),
              std::isfinite(mb) ? std::string() : std::string("probe process failed"));
      if (std::isfinite(mb)) rss.push_back(mb);
    }
  }

  const double setupRssMb = peakRssMb();
  std::vector<JobOut> jobs;
  const double deadline = hostNow() + seconds;
  while (hostNow() < deadline || jobs.size() < static_cast<std::size_t>(kMinJobs)) {
    jobs.push_back(runJob(w, in));
    res.job("job", jobs.size() - 1, jobs.back().error);
  }

  const std::size_t n = jobs.size();
  const std::vector<double> walls = collect(jobs, [](const JobOut& j) { return j.wallSeconds; });

  // Per-job isolation: every job gets a fresh volume, so modelled read
  // time must not grow over the run. A leak queues each job behind the
  // previous jobs' I/O, so read time grows with the job index; compare
  // the medians of the first and last quarter of the jobs against the
  // range of the first quarter's values, which a leak has not yet
  // widened. Read time varies from job to job with the host's thread
  // order, and its median moves by up to ~15% with host load, so the
  // run's IQR alone (about 1.3 standard deviations) flags leak-free runs
  // now and then; it only bounds the spread from below, for runs too
  // short for a quarter to have a range.
  const std::vector<double> reads = collect(jobs, [](const JobOut& j) { return j.maxPhase(&mvio::core::PhaseBreakdown::read); });
  const std::size_t quarter = std::max<std::size_t>(1, n / 4);
  const std::vector<double> firstReads(reads.begin(), reads.begin() + static_cast<std::ptrdiff_t>(quarter));
  const double readFirst = median(firstReads);
  const double readLast = median({reads.end() - static_cast<std::ptrdiff_t>(quarter), reads.end()});
  const double readDrift = readLast - readFirst;
  const auto [firstMin, firstMax] = std::minmax_element(firstReads.begin(), firstReads.end());
  const double readSpread = std::max(*firstMax - *firstMin, iqr(reads)) + 1e-9 * median(reads);
  const bool isolated = readDrift <= readSpread;
  if (!isolated) res.correct = false;

  const double inputMb = static_cast<double>(in.inputBytes) / 1e6;
  res.add("setup_s", median(setups), "s");
  res.add("job_cpu_s_p50", median(collect(jobs, [](const JobOut& j) { return j.cpuSeconds; })), "s");
  res.add("makespan_s_p50", median(collect(jobs, [](const JobOut& j) { return j.makespan(); })), "s");
  res.add("io_mb_per_s",
          median(collect(jobs, [&](const JobOut& j) { return inputMb / j.ingestSeconds(); })), "MB/s");
  res.add("peak_rss_mb", median(rss), "MB");

  for (const Metric& m : res.metrics) std::printf("%-18s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  // Host wall time swings with the VM's CPU steal far beyond any usable
  // bound, so it is printed here and reported per layer, not gated.
  const Tail tail = tailOf(walls);
  std::printf("%-18s %14.6f s   (host wall of the set-ups, not gated)\n", "setup_wall_s", median(setupWalls));
  std::printf("%-18s %14.6f s   (host wall, not gated)\n", "job_wall_s_p50", median(walls));
  std::printf("%-18s %14.6f s   (host wall, not gated)\n", "job_wall_s_tail", tail.value);
  printTail(tail);
  std::printf("%-18s %14.6f ratio   (%llu of %llu jobs failed; not in the JSON metrics, which "
              "carry it as attempted/failed)\n",
              "failed_job_ratio", static_cast<double>(res.failed) / static_cast<double>(res.attempted),
              static_cast<unsigned long long>(res.failed), static_cast<unsigned long long>(res.attempted));
  std::printf("peak_rss_mb: median of %zu one-job probe processes' peaks (highest %.1f MB); this "
              "process peaked at %.1f MB after set-up, %.1f MB at the end\n",
              rss.size(), rss.empty() ? 0.0 : *std::max_element(rss.begin(), rss.end()), setupRssMb,
              peakRssMb());
  std::printf("isolation: pfs.read_s first-quarter p50 %.9f last-quarter p50 %.9f drift %.3g <= spread %.3g: %s\n",
              readFirst, readLast, readDrift, readSpread, isolated ? "ok" : "LEAK");
  std::printf("oracle: %llu of %llu jobs matched\n",
              static_cast<unsigned long long>(res.attempted - res.failed),
              static_cast<unsigned long long>(res.attempted));
  return res;
}

// ---- --trace 1: per layer ----------------------------------------------

struct SpanStats {
  double seconds = 0;
  double items = 0;
  int calls = 0;
};

Result perLayer(const WorkloadSpec& w, std::uint64_t seed, double seconds, const std::string& traceOut) {
  Result res;
  const Inputs in = setUp(w, seed);

  std::vector<double> spawns;
  for (int k = 0; k < kSpawnSamples; ++k) {
    const double t0 = hostNow();
    mvio::mpi::Runtime::run(w.ranks, machineFor(w), [](mvio::mpi::Comm&) {});
    spawns.push_back(hostNow() - t0);
  }

  // Staged jobs, alternating untraced and traced, then full untraced jobs
  // (counts and virtual seconds from their *Stats) for the rest of the run.
  const double runEnd = hostNow() + seconds;
  Tracer tracer;
  std::vector<StageOut> traced;
  std::vector<double> untracedWalls, tracedWalls;
  const double stagedUntil = hostNow() + 0.6 * seconds;
  int job = 0;
  while ((hostNow() < stagedUntil && traced.size() < kMaxStagedPairs) ||
         traced.size() < static_cast<std::size_t>(kMinJobs)) {
    const StageOut plain = runStaged(w, in, nullptr, ++job);
    res.job("staged job", static_cast<std::uint64_t>(job), plain.error);
    untracedWalls.push_back(plain.wallSeconds);
    traced.push_back(runStaged(w, in, &tracer, ++job));
    res.job("traced staged job", static_cast<std::uint64_t>(job), traced.back().error);
    tracedWalls.push_back(traced.back().wallSeconds);
  }

  std::vector<JobOut> jobs;
  while (hostNow() < runEnd || jobs.size() < static_cast<std::size_t>(kMinJobs)) {
    jobs.push_back(runJob(w, in));
    res.job("job", jobs.size() - 1, jobs.back().error);
  }
  using PB = mvio::core::PhaseBreakdown;
  const auto med = [&](const std::function<double(const JobOut&)>& f) { return median(collect(jobs, f)); };
  const auto maxPhase = [&](double PB::*field) { return med([field](const JobOut& j) { return j.maxPhase(field); }); };
  // Per-job rank sum / rank max of `f`, median over jobs.
  const auto sumOver = [&](const std::function<double(const RankOut&)>& f) {
    return med([&](const JobOut& j) { return sumRanks(j, f); });
  };
  const auto maxOver = [&](const std::function<double(const RankOut&)>& f) {
    return med([&](const JobOut& j) { return maxRanks(j, f); });
  };
  const auto mb = [](std::uint64_t bytes) { return static_cast<double>(bytes) / 1e6; };
  const std::vector<double> walls = collect(jobs, [](const JobOut& j) { return j.wallSeconds; });
  const Tail tail = tailOf(walls);

  const std::vector<Span> spans = tracer.spans();
  std::map<std::string, SpanStats> byName;
  for (const Span& s : spans) {
    SpanStats& st = byName[std::string(s.layer) + "." + s.name];
    st.seconds += s.end - s.start;
    st.items += static_cast<double>(s.items);
    ++st.calls;
  }
  const auto perCall = [&](const char* name) {
    const SpanStats& st = byName[name];
    return st.calls == 0 ? 0.0 : st.seconds / st.calls;
  };
  const auto stagedMb = [&](std::uint64_t StageOut::*field) {
    std::vector<double> v;
    for (const StageOut& s : traced) v.push_back(mb(s.*field));
    return median(v);
  };
  const double tracedJobs = static_cast<double>(traced.size());
  const TraceSummary summary = analyse(spans);

  const bool join = w.kind == Kind::kJoin;
  const SpanStats& parse = byName["geom.parse"];
  const SpanStats& project = byName["core.project"];
  res.add("geom.parse_mb_per_s", parse.seconds > 0 ? parse.items / 1e6 / parse.seconds : 0, "MB/s");
  res.add("geom.parse_s", maxPhase(&PB::parse), "s");
  res.add("util.pool_efficiency", med([&](const JobOut& j) {
            const double critical = sumRanks(j, [](const RankOut& r) { return r.phases.workerCritical; });
            return critical > 0 ? sumRanks(j, [](const RankOut& r) { return r.phases.workerCpu; }) /
                                      (w.threadsPerRank * critical)
                                : 0.0;
          }), "ratio");
  res.add("core.refine_s", maxPhase(&PB::compute), "s");
  res.add("core.refine_precision", join ? med([](const JobOut& j) {
            const RankOut& r = j.ranks[0];
            return r.candidatePairs > 0 ? static_cast<double>(r.globalPairs) / static_cast<double>(r.candidatePairs) : 0.0;
          }) : 0.0, "ratio");
  res.add("geom.rtree_build_us",
          (byName["geom.rtree_build"].seconds + byName["core.index_build"].seconds) / tracedJobs * 1e6, "us");
  res.add("geom.serial_join_s", join ? in.serialJoinSeconds : 0.0, "s");
  res.add("core.project_ns_per_record", project.items > 0 ? project.seconds / project.items * 1e9 : 0, "ns");
  res.add("core.partition_s", maxPhase(&PB::partition), "s");
  res.add("core.exchange_round_us", perCall("core.exchange") * 1e6, "us");
  res.add("core.rounds", maxOver([](const RankOut& r) { return static_cast<double>(r.phases.rounds); }), "count");
  res.add("core.exchange_mb", stagedMb(&StageOut::exchangeBytes), "MB");
  res.add("core.comm_s", maxPhase(&PB::comm), "s");
  res.add("mpi.spawn_ms", median(spawns) * 1e3, "ms");
  res.add("proc.ctx_switches_per_job", med([](const JobOut& j) { return static_cast<double>(j.contextSwitches); }), "count");
  res.add("proc.cpu_sys_s_per_job", med([](const JobOut& j) { return j.sysSeconds; }), "s");
  res.add("pfs.read_s", maxPhase(&PB::read), "s");
  res.add("pfs.read_mb", stagedMb(&StageOut::readBytes), "MB");
  res.add("io.read_chunk_us", perCall("io.read_chunk") * 1e6, "us");
  res.add("pfs.spill_s", maxPhase(&PB::spill), "s");
  res.add("pfs.spill_write_mb", sumOver([&](const RankOut& r) { return mb(r.spill.bytesWritten); }), "MB");
  res.add("pfs.spill_reload_mb", sumOver([&](const RankOut& r) { return mb(r.spill.bytesRead); }), "MB");
  res.add("core.refine_peak_mb", maxOver([&](const RankOut& r) { return mb(r.refinePeakBytes); }), "MB");
  res.add("recovery.checkpoint_s", maxPhase(&PB::checkpoint), "s");
  res.add("recovery.checkpoint_mb", sumOver([&](const RankOut& r) { return mb(r.phases.checkpointBytes); }), "MB");
  res.add("recovery.compaction_mb", sumOver([&](const RankOut& r) { return mb(r.phases.compactionBytes); }), "MB");
  res.add("recovery.reclaimed_mb", sumOver([&](const RankOut& r) { return mb(r.phases.reclaimedBytes); }), "MB");
  res.add("recovery.recovery_s", maxPhase(&PB::recovery), "s");
  res.add("recovery.restored_records", sumOver([](const RankOut& r) { return static_cast<double>(r.restoredRecords); }), "count");
  res.add("recovery.replayed_records", sumOver([](const RankOut& r) { return static_cast<double>(r.replayedRecords); }), "count");
  res.add("core.load_max_mean", maxOver([](const RankOut& r) { return r.imbalance; }), "ratio");
  res.add("core.migrate_mb", sumOver([&](const RankOut& r) { return mb(r.phases.migrateBytes); }), "MB");
  res.add("core.migrate_s", maxPhase(&PB::migrate), "s");
  res.add("core.cells_moved", maxOver([](const RankOut& r) { return static_cast<double>(r.cellsMoved); }), "count");
  res.add("io.write_all_ms", perCall("io.write_all") * 1e3, "ms");
  res.add("sim.slack_s_max", med([](const JobOut& j) {
            const double makespan = j.makespan();
            return maxRanks(j, [&](const RankOut& r) { return r.died ? 0.0 : makespan - r.phases.total(); });
          }), "s");

  res.add("job_wall_s_p50", median(walls), "s");
  res.add("job_wall_s_tail", tail.value, "s");
  res.add("trace.overhead_s", median(tracedWalls) - median(untracedWalls), "s");
  const auto ofRankTime = [&](double seconds) {
    return summary.rankSeconds > 0 ? seconds / summary.rankSeconds : 0.0;
  };
  res.add("trace.span_coverage", ofRankTime(summary.coveredSeconds), "ratio");
  for (const char* layer : {"bench", "mpi", "pfs", "io", "geom", "core", "util"}) {
    const auto it = summary.layers.find(layer);
    const LayerSummary l = it == summary.layers.end() ? LayerSummary{} : it->second;
    res.add(std::string("self_ms.") + layer, l.selfSeconds / tracedJobs * 1e3, "ms");
    if (std::string_view(layer) != "bench") res.add(std::string("cover.") + layer, ofRankTime(l.coverSeconds), "ratio");
  }

  for (const Metric& m : res.metrics) std::printf("%-28s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("traced: %zu staged jobs (+%zu untraced), %zu full jobs, %zu spans; staged wall p50 %.6f s traced, "
              "%.6f s untraced\n",
              traced.size(), untracedWalls.size(), jobs.size(), spans.size(), median(tracedWalls),
              median(untracedWalls));
  printTail(tail);
  if (frameworkFor(w).rebalanceCells) {
    const RankOut& rank0 = jobs.back().ranks[0];
    std::printf("rebalance (last job, rank 0): load max/mean %.3f, %s\n", rank0.imbalance,
                !rank0.rebalanceSkipped ? "LPT pass ran" : rank0.costGated ? "skipped: cost model" : "skipped");
  }
  if (!traceOut.empty()) {
    if (tracer.writeChrome(traceOut)) {
      std::printf("trace: wrote %zu spans to %s\n", spans.size(), traceOut.c_str());
    } else {
      std::printf("trace: could not write %s\n", traceOut.c_str());
    }
  }
  std::printf("oracle: %llu of %llu jobs matched\n",
              static_cast<unsigned long long>(res.attempted - res.failed),
              static_cast<unsigned long long>(res.attempted));
  return res;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <join_wkt|index_wkb_stream|overlay_skew_recover> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  gSelf = argv[0];
  // The injected failure logs a WARN line per rank; keep it off the timed path.
  mvio::util::setLogLevel(mvio::util::LogLevel::kError);
  if (argc == 4 && std::string(argv[1]) == "--probe") {
    const WorkloadSpec* w = findWorkload(argv[2]);
    return w == nullptr ? usage() : probe(*w, static_cast<std::uint64_t>(std::atoll(argv[3])));
  }
  std::string workload, traceOut;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed = std::atoll(value);
    else if (flag == "--seconds") seconds = std::atof(value);
    else if (flag == "--trace") trace = std::atoi(value);
    else if (flag == "--trace-out") traceOut = value;
    else return usage();
  }
  if (argc % 2 == 0 || seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) return usage();
  const WorkloadSpec* w = findWorkload(workload);
  if (w == nullptr) return usage();

#if PERFBENCH_SANITIZED || !defined(NDEBUG) || !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to time a sanitizer or debug build (%s)\n", PERFBENCH_BUILD_TYPE);
  return 3;
#endif


  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const int threads = w->ranks * w->threadsPerRank;
  std::printf("perfbench: workload=%s ranks=%d threads/rank=%d seed=%lld seconds=%g trace=%d\n", w->name,
              w->ranks, w->threadsPerRank, seed, seconds, trace);
  std::printf("perfbench: nproc=%ld build=%s rank+worker threads=%d%s\n", nproc, PERFBENCH_BUILD_TYPE, threads,
              threads > nproc ? " (exceeds nproc: figures measure the scheduler; run marked incorrect)" : "");

  Result res = trace == 0 ? endToEnd(*w, static_cast<std::uint64_t>(seed), seconds)
                          : perLayer(*w, static_cast<std::uint64_t>(seed), seconds, traceOut);
  if (threads > nproc) res.correct = false;

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted) + ", \"failed\": " + std::to_string(res.failed) +
          ", \"metrics\": {";
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", res.metrics[i].value);
    json += (i == 0 ? "\"" : ", \"") + res.metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
            res.metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
