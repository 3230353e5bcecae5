#pragma once
// MPI-subset runtime: threads as ranks (see DESIGN.md §2).
//
// Runtime::run(P, machine, fn) launches P rank threads, each receiving a
// Comm handle for the world communicator. Ranks exchange real bytes
// through per-communicator mailboxes with MPI tag/source matching;
// collectives are executed by the last-arriving rank over the registered
// buffers of all participants (the shared address space stands in for the
// network, the *cost model* stands in for its timing).
//
// Timing semantics:
//  * Each rank owns a sim::Clock.
//  * send() charges the alpha-beta transfer cost of the message and stamps
//    the envelope with its completion time; recv() synchronises the
//    receiver's clock to max(own, envelope ready time).
//  * Collectives synchronise all participants to the max arrival clock
//    plus a tree-model cost (log2(P) levels).
//  * Compute phases are charged explicitly with CpuCharge, which measures
//    per-thread CPU time (immune to host oversubscription).
//
// Blocking semantics: send() is buffered (never blocks on the receiver),
// recv()/probe() block until a matching message arrives. The paper's
// Algorithm 1 even/odd ring protocol therefore runs verbatim.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "mpi/datatype.hpp"
#include "mpi/op.hpp"
#include "sim/clock.hpp"
#include "sim/machine.hpp"

namespace mvio::mpi {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

/// Result of a receive or probe.
struct Status {
  int source = -1;
  int tag = -1;
  std::size_t bytes = 0;

  /// MPI_Get_count: number of `type` elements in the message, or -1 when
  /// the byte count is not a whole multiple (MPI_UNDEFINED).
  [[nodiscard]] int count(const Datatype& type) const {
    const std::uint64_t sz = type.size();
    if (sz == 0 || bytes % sz != 0) return -1;
    return static_cast<int>(bytes / sz);
  }
};

namespace detail {
struct RuntimeState;
struct CommData;
struct RankContext;
}  // namespace detail

/// Communicator handle (cheap to copy; references runtime-owned state).
class Comm {
 public:
  [[nodiscard]] int rank() const { return localRank_; }
  [[nodiscard]] int size() const;
  /// Rank id in the world communicator.
  [[nodiscard]] int worldRank() const;
  /// Compute node hosting this rank per the machine model.
  [[nodiscard]] int nodeId() const;
  /// Compute node hosting any rank of this communicator.
  [[nodiscard]] int nodeOfRank(int localRank) const;
  [[nodiscard]] sim::Clock& clock();
  [[nodiscard]] const sim::MachineModel& machine() const;

  // ---- Point-to-point ----------------------------------------------------
  void send(const void* buf, int count, const Datatype& type, int dest, int tag);
  Status recv(void* buf, int maxCount, const Datatype& type, int source, int tag);
  /// Blocking probe: waits until a matching message is available.
  Status probe(int source, int tag);
  /// Non-blocking probe.
  bool iprobe(int source, int tag, Status* status);

  // ---- Collectives ---------------------------------------------------------
  void barrier();
  void bcast(void* buf, int count, const Datatype& type, int root);
  /// Fixed-size gather; `recv` significant at root only (size*count elems).
  void gather(const void* sendBuf, int count, const Datatype& type, void* recvBuf, int root);
  /// Variable gather; counts/displs (in elements) significant at root only.
  void gatherv(const void* sendBuf, int sendCount, const Datatype& type, void* recvBuf,
               const int* recvCounts, const int* displs, int root);
  void allgather(const void* sendBuf, int count, const Datatype& type, void* recvBuf);
  void alltoall(const void* sendBuf, int countPerRank, const Datatype& type, void* recvBuf);
  /// Irregular personalized all-to-all; one datatype for both sides, as the
  /// paper notes MPI requires. Counts and displacements are in elements.
  void alltoallv(const void* sendBuf, const int* sendCounts, const int* sendDispls, void* recvBuf,
                 const int* recvCounts, const int* recvDispls, const Datatype& type);
  void reduce(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op, int root);
  void allreduce(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op);
  /// Inclusive prefix reduction (MPI_Scan).
  void scan(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op);

  // ---- Convenience scalars (used heavily by harnesses) --------------------
  [[nodiscard]] double allreduceMax(double value);
  [[nodiscard]] double allreduceSum(double value);
  [[nodiscard]] std::uint64_t allreduceSumU64(std::uint64_t value);
  /// Synchronise every participant's clock to the global max (barrier with
  /// clock alignment; used between benchmark phases).
  void syncClocks();

  // ---- Communicator management -------------------------------------------
  /// MPI_Comm_split: ranks with equal color form a new communicator,
  /// ordered by (key, world rank). color must be >= 0.
  Comm split(int color, int key);

 private:
  friend class Runtime;
  friend struct detail::RuntimeState;
  Comm(detail::CommData* comm, detail::RankContext* me, int localRank)
      : comm_(comm), me_(me), localRank_(localRank) {}

  detail::CommData* comm_;
  detail::RankContext* me_;
  int localRank_;
};

/// Launches rank threads and owns all shared state for one parallel run.
class Runtime {
 public:
  /// Run `fn` on `nprocs` rank threads over the given machine model.
  /// Propagates the first rank exception after all threads join. Each run
  /// starts a new sim timeline, so storage-model queue state left by an
  /// earlier run on the same Volume never delays this one.
  static void run(int nprocs, const sim::MachineModel& machine, const std::function<void(Comm&)>& fn);

  /// Single-node testbed convenience for unit tests.
  static void run(int nprocs, const std::function<void(Comm&)>& fn);
};

/// RAII: measures this thread's CPU seconds and charges them to the rank's
/// virtual clock on destruction. `scale` calibrates host CPU speed to the
/// modelled testbed (1.0 = charge as measured).
class CpuCharge {
 public:
  explicit CpuCharge(Comm& comm, double scale = 1.0) : comm_(&comm), scale_(scale) {}

  CpuCharge(const CpuCharge&) = delete;
  CpuCharge& operator=(const CpuCharge&) = delete;

  /// Stop measuring and charge now; returns the charged virtual seconds.
  double stop() {
    if (comm_ == nullptr) return 0.0;
    const double t = timer_.elapsed() * scale_;
    comm_->clock().advanceBy(t);
    comm_ = nullptr;
    return t;
  }

  ~CpuCharge() { stop(); }

 private:
  Comm* comm_;
  double scale_;
  sim::ThreadCpuTimer timer_;
};

}  // namespace mvio::mpi
