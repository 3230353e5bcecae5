#pragma once
// Host-clock span recorder for the traced run.
//
// Spans are opened by the benchmark around its own calls into the
// library's public functions — never inside the library — and carry the
// module ("layer") they enter, a name, start/end on the host steady
// clock, the span that caused them and the job they belong to. They stay
// in memory until the run ends; analyse() folds them into per-layer self
// time and coverage, and writeChrome() dumps them for a trace viewer.
//
// A null Tracer makes every Scope a no-op, so the same staged code runs
// traced and untraced and the difference between the two is the tracing
// overhead.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Host steady-clock seconds (arbitrary origin).
double hostNow();

struct Span {
  const char* layer = "";
  const char* name = "";
  double start = 0;  ///< host seconds since the tracer was created
  double end = 0;
  int parent = -1;   ///< index of the causing span, -1 for a job root
  int job = 0;
  int thread = 0;  ///< small per-thread index, in order of first span
  std::uint64_t items = 0;  ///< work counted at the boundary (bytes or records)
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  int open(const char* layer, const char* name, int parent, int job);
  void close(int id, std::uint64_t items);

  [[nodiscard]] std::vector<Span> spans() const;
  /// Chrome trace-event JSON (one "X" event per span).
  bool writeChrome(const std::string& path) const;

 private:
  [[nodiscard]] double now() const;

  double origin_ = 0;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// The span the calling thread is currently inside (the parent of the
/// next Scope it opens). Rank threads adopt the span that launched them.
struct ThreadSpan {
  static int& current();
  static int& job();
  static int index();
};

/// RAII span: opens on construction, closes on destruction (also when
/// the traced call throws).
class Scope {
 public:
  Scope(Tracer* tracer, const char* layer, const char* name);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  void count(std::uint64_t items) { items_ += items; }
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
  int saved_ = -1;
  std::uint64_t items_ = 0;
};

/// Per-layer aggregates over the spans of a set of jobs.
struct LayerSummary {
  double selfSeconds = 0;   ///< span time not covered by child spans, summed
  double coverSeconds = 0;  ///< union of this layer's spans inside each rank span, summed
};

struct TraceSummary {
  std::map<std::string, LayerSummary> layers;
  /// Time inside "bench.rank" spans (one per rank thread per job), summed.
  double rankSeconds = 0;
  /// Union of the library-call spans (every layer but "bench") inside
  /// each rank span, summed.
  double coveredSeconds = 0;
};

/// Fold spans into per-layer self time and coverage. Root spans (parent
/// -1) are the jobs; their own self time is not attributed to a layer.
/// Coverage is measured inside the rank spans only, against library-call
/// spans: the "bench" layer (the rank span itself and benchmark-side
/// code) and wrappers outside the ranks (the volume, Runtime::run) never
/// count as covered.
TraceSummary analyse(const std::vector<Span>& spans);

}  // namespace perfbench
