#include "mpi/runtime.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace mvio::mpi {

namespace detail {

/// A message in flight: real payload bytes plus the virtual time at which
/// the transfer completes on the receiver side.
struct Envelope {
  int source = -1;
  int tag = -1;
  std::string payload;
  double readyAt = 0.0;
};

struct Mailbox {
  std::mutex m;
  std::condition_variable cv;
  std::deque<Envelope> q;
};

/// Arguments a rank registers when it arrives at a collective.
struct CollArg {
  const void* send = nullptr;
  void* recv = nullptr;
  const int* scounts = nullptr;
  const int* sdispls = nullptr;
  const int* rcounts = nullptr;
  const int* rdispls = nullptr;
  int count = 0;
  int a = 0;  // generic scalar slot (root / color)
  int b = 0;  // generic scalar slot (key)
  double now = 0.0;
};

struct CommData;

struct CollectiveSlot {
  std::mutex m;
  std::condition_variable cv;
  std::uint64_t generation = 0;
  int arrived = 0;
  std::vector<CollArg> args;
  std::vector<double> completion;
  // split() results, per local rank:
  std::vector<std::shared_ptr<CommData>> splitComm;
  std::vector<int> splitLocalRank;
};

struct RankContext {
  int worldRank = 0;
  sim::Clock clock;
};

struct RuntimeState;

struct CommData {
  RuntimeState* rt = nullptr;
  std::vector<int> globalRanks;  // local rank -> world rank
  std::vector<std::unique_ptr<Mailbox>> mailboxes;
  CollectiveSlot coll;
  bool spansNodes = false;

  [[nodiscard]] int size() const { return static_cast<int>(globalRanks.size()); }
};

struct RuntimeState {
  sim::MachineModel machine;
  int nprocs = 0;
  std::vector<RankContext> ranks;
  CommData world;
  std::mutex subMutex;
  std::vector<std::shared_ptr<CommData>> subComms;
  std::atomic<bool> aborted{false};

  void initComm(CommData& c, std::vector<int> globalRanks) {
    c.rt = this;
    c.globalRanks = std::move(globalRanks);
    const auto p = static_cast<std::size_t>(c.size());
    c.mailboxes.clear();
    c.mailboxes.reserve(p);
    for (std::size_t i = 0; i < p; ++i) c.mailboxes.push_back(std::make_unique<Mailbox>());
    c.coll.args.resize(p);
    c.coll.completion.resize(p);
    c.coll.splitComm.resize(p);
    c.coll.splitLocalRank.resize(p);
    c.spansNodes = false;
    for (int g : c.globalRanks) {
      if (machine.nodeOf(g) != machine.nodeOf(c.globalRanks.front())) {
        c.spansNodes = true;
        break;
      }
    }
  }

  void abortAll() {
    aborted.store(true);
    auto wake = [](CommData& c) {
      for (auto& mb : c.mailboxes) {
        std::lock_guard<std::mutex> lock(mb->m);
        mb->cv.notify_all();
      }
      {
        std::lock_guard<std::mutex> lock(c.coll.m);
        c.coll.cv.notify_all();
      }
    };
    wake(world);
    std::lock_guard<std::mutex> lock(subMutex);
    for (auto& sub : subComms) wake(*sub);
  }
};

namespace {

[[noreturn]] void throwAborted() {
  throw util::Error("parallel run aborted because another rank failed", __FILE__, __LINE__);
}

/// Binomial-tree depth for P participants.
int treeDepth(int p) {
  int d = 0;
  while ((1 << d) < p) ++d;
  return d;
}

}  // namespace

}  // namespace detail

using detail::CollArg;
using detail::CommData;
using detail::Envelope;
using detail::Mailbox;

// ---- Comm basics -----------------------------------------------------------

int Comm::size() const { return comm_->size(); }
int Comm::worldRank() const { return comm_->globalRanks[static_cast<std::size_t>(localRank_)]; }
int Comm::nodeId() const { return comm_->rt->machine.nodeOf(worldRank()); }

int Comm::nodeOfRank(int localRank) const {
  MVIO_CHECK(localRank >= 0 && localRank < size(), "nodeOfRank: bad rank");
  return comm_->rt->machine.nodeOf(comm_->globalRanks[static_cast<std::size_t>(localRank)]);
}
sim::Clock& Comm::clock() { return me_->clock; }
const sim::MachineModel& Comm::machine() const { return comm_->rt->machine; }

// ---- Point-to-point --------------------------------------------------------

void Comm::send(const void* buf, int count, const Datatype& type, int dest, int tag) {
  MVIO_CHECK(dest >= 0 && dest < size(), "send: bad destination rank");
  MVIO_CHECK(count >= 0, "send: negative count");
  MVIO_CHECK(tag >= 0, "send: tag must be >= 0");
  if (comm_->rt->aborted.load()) detail::throwAborted();

  Envelope env;
  env.source = localRank_;
  env.tag = tag;
  if (count > 0) {
    MVIO_CHECK(buf != nullptr, "send: null buffer with nonzero count");
    type.pack(buf, count, env.payload);
  }

  // Blocking-send semantics: the sender's clock advances by the modelled
  // transfer; the message is ready at the receiver at that same instant.
  const double cost = comm_->rt->machine.transferSeconds(
      worldRank(), comm_->globalRanks[static_cast<std::size_t>(dest)], env.payload.size());
  me_->clock.advanceBy(cost);
  env.readyAt = me_->clock.now();

  Mailbox& mb = *comm_->mailboxes[static_cast<std::size_t>(dest)];
  {
    std::lock_guard<std::mutex> lock(mb.m);
    mb.q.push_back(std::move(env));
  }
  mb.cv.notify_all();
}

namespace {

bool matches(const Envelope& env, int source, int tag) {
  return (source == kAnySource || env.source == source) && (tag == kAnyTag || env.tag == tag);
}

}  // namespace

Status Comm::recv(void* buf, int maxCount, const Datatype& type, int source, int tag) {
  MVIO_CHECK(source == kAnySource || (source >= 0 && source < size()), "recv: bad source rank");
  MVIO_CHECK(maxCount >= 0, "recv: negative max count");

  Mailbox& mb = *comm_->mailboxes[static_cast<std::size_t>(localRank_)];
  Envelope env;
  {
    std::unique_lock<std::mutex> lock(mb.m);
    auto it = mb.q.end();
    mb.cv.wait(lock, [&] {
      if (comm_->rt->aborted.load()) return true;
      it = std::find_if(mb.q.begin(), mb.q.end(),
                        [&](const Envelope& e) { return matches(e, source, tag); });
      return it != mb.q.end();
    });
    if (comm_->rt->aborted.load()) detail::throwAborted();
    env = std::move(*it);
    mb.q.erase(it);
  }

  const std::uint64_t typeSize = type.size();
  MVIO_CHECK(typeSize > 0, "recv: zero-size datatype");
  MVIO_CHECK(env.payload.size() % typeSize == 0, "recv: message size is not a multiple of the datatype");
  const auto n = static_cast<int>(env.payload.size() / typeSize);
  MVIO_CHECK(n <= maxCount, "recv: message truncated (buffer too small)");
  if (n > 0) {
    MVIO_CHECK(buf != nullptr, "recv: null buffer");
    type.unpack(env.payload.data(), env.payload.size(), buf, n);
  }

  me_->clock.advanceTo(env.readyAt);
  return Status{env.source, env.tag, env.payload.size()};
}

Status Comm::probe(int source, int tag) {
  Mailbox& mb = *comm_->mailboxes[static_cast<std::size_t>(localRank_)];
  std::unique_lock<std::mutex> lock(mb.m);
  const Envelope* found = nullptr;
  mb.cv.wait(lock, [&] {
    if (comm_->rt->aborted.load()) return true;
    for (const auto& e : mb.q) {
      if (matches(e, source, tag)) {
        found = &e;
        return true;
      }
    }
    return false;
  });
  if (comm_->rt->aborted.load()) detail::throwAborted();
  me_->clock.advanceTo(found->readyAt);
  return Status{found->source, found->tag, found->payload.size()};
}

bool Comm::iprobe(int source, int tag, Status* status) {
  Mailbox& mb = *comm_->mailboxes[static_cast<std::size_t>(localRank_)];
  std::lock_guard<std::mutex> lock(mb.m);
  for (const auto& e : mb.q) {
    if (matches(e, source, tag)) {
      if (status != nullptr) *status = Status{e.source, e.tag, e.payload.size()};
      return true;
    }
  }
  return false;
}

// ---- Collective machinery --------------------------------------------------

namespace {

/// Runs one collective round: the last-arriving rank executes `exec` over
/// all registered args (filling per-rank completion times); everyone then
/// advances their clock to their completion.
template <typename Exec>
void runCollective(CommData& c, detail::RankContext& me, int localRank, CollArg arg, Exec&& exec) {
  auto& slot = c.coll;
  double myCompletion = 0.0;
  {
    std::unique_lock<std::mutex> lock(slot.m);
    if (c.rt->aborted.load()) detail::throwAborted();
    const std::uint64_t gen = slot.generation;
    arg.now = me.clock.now();
    slot.args[static_cast<std::size_t>(localRank)] = arg;
    if (++slot.arrived == c.size()) {
      exec(slot.args, slot.completion);
      slot.arrived = 0;
      ++slot.generation;
      myCompletion = slot.completion[static_cast<std::size_t>(localRank)];
      slot.cv.notify_all();
    } else {
      slot.cv.wait(lock, [&] { return slot.generation != gen || c.rt->aborted.load(); });
      if (c.rt->aborted.load()) detail::throwAborted();
      myCompletion = slot.completion[static_cast<std::size_t>(localRank)];
    }
  }
  me.clock.advanceTo(myCompletion);
}

double maxArrival(const std::vector<CollArg>& args) {
  double base = 0.0;
  for (const auto& a : args) base = std::max(base, a.now);
  return base;
}

}  // namespace

void Comm::barrier() {
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());
  runCollective(*comm_, *me_, localRank_, CollArg{},
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  const double t = maxArrival(args) + depth * link.latency;
                  std::fill(done.begin(), done.end(), t);
                });
}

void Comm::syncClocks() {
  runCollective(*comm_, *me_, localRank_, CollArg{},
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  std::fill(done.begin(), done.end(), maxArrival(args));
                });
}

void Comm::bcast(void* buf, int count, const Datatype& type, int root) {
  MVIO_CHECK(root >= 0 && root < size(), "bcast: bad root");
  MVIO_CHECK(count >= 0, "bcast: negative count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());
  const std::uint64_t bytes = type.size() * static_cast<std::uint64_t>(count);

  CollArg arg;
  arg.recv = buf;
  arg.a = root;
  arg.count = count;
  runCollective(*comm_, *me_, localRank_, arg,
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  // Relay root's element bytes into every other buffer
                  // (pack once, unpack per receiver — handles any typemap).
                  const auto& rootArg = args[static_cast<std::size_t>(root)];
                  if (count > 0) {
                    std::string payload;
                    type.pack(rootArg.recv, count, payload);
                    for (int i = 0; i < size(); ++i) {
                      if (i == root) continue;
                      type.unpack(payload.data(), payload.size(), args[static_cast<std::size_t>(i)].recv,
                                  count);
                    }
                  }
                  const double t = maxArrival(args) + depth * link.transferSeconds(bytes);
                  std::fill(done.begin(), done.end(), t);
                });
}

void Comm::gather(const void* sendBuf, int count, const Datatype& type, void* recvBuf, int root) {
  std::vector<int> counts;
  std::vector<int> displs;
  if (localRank_ == root) {
    counts.assign(static_cast<std::size_t>(size()), count);
    displs.resize(static_cast<std::size_t>(size()));
    for (int i = 0; i < size(); ++i) displs[static_cast<std::size_t>(i)] = i * count;
  }
  gatherv(sendBuf, count, type, recvBuf, counts.empty() ? nullptr : counts.data(),
          displs.empty() ? nullptr : displs.data(), root);
}

void Comm::gatherv(const void* sendBuf, int sendCount, const Datatype& type, void* recvBuf,
                   const int* recvCounts, const int* displs, int root) {
  MVIO_CHECK(root >= 0 && root < size(), "gatherv: bad root");
  MVIO_CHECK(sendCount >= 0, "gatherv: negative send count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.rcounts = recvCounts;
  arg.rdispls = displs;
  arg.count = sendCount;
  arg.a = root;
  runCollective(
      *comm_, *me_, localRank_, arg, [&](const std::vector<CollArg>& args, std::vector<double>& done) {
        const auto& rootArg = args[static_cast<std::size_t>(root)];
        MVIO_CHECK(rootArg.rcounts != nullptr && rootArg.rdispls != nullptr,
                   "gatherv: root must supply counts and displacements");
        const auto ext = static_cast<std::int64_t>(type.extent());
        std::uint64_t totalBytes = 0;
        for (int i = 0; i < size(); ++i) {
          const auto& src = args[static_cast<std::size_t>(i)];
          MVIO_CHECK(src.count == rootArg.rcounts[i], "gatherv: send count mismatch with root's recvCounts");
          if (src.count == 0) continue;
          std::string payload;
          type.pack(src.send, src.count, payload);
          totalBytes += payload.size();
          char* dst = static_cast<char*>(rootArg.recv) + rootArg.rdispls[i] * ext;
          type.unpack(payload.data(), payload.size(), dst, src.count);
        }
        const double base = maxArrival(args);
        const double rootDone = base + depth * link.latency + static_cast<double>(totalBytes) / link.bytesPerSecond;
        for (int i = 0; i < size(); ++i) {
          const auto& src = args[static_cast<std::size_t>(i)];
          const std::uint64_t selfBytes = type.size() * static_cast<std::uint64_t>(src.count);
          done[static_cast<std::size_t>(i)] =
              i == root ? rootDone : base + link.transferSeconds(selfBytes);
        }
      });
}

void Comm::allgather(const void* sendBuf, int count, const Datatype& type, void* recvBuf) {
  MVIO_CHECK(count >= 0, "allgather: negative count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.count = count;
  runCollective(*comm_, *me_, localRank_, arg,
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  const auto ext = static_cast<std::int64_t>(type.extent());
                  std::string payload;
                  for (int i = 0; i < size(); ++i) {
                    payload.clear();
                    const auto& src = args[static_cast<std::size_t>(i)];
                    if (count == 0) continue;
                    type.pack(src.send, count, payload);
                    for (int j = 0; j < size(); ++j) {
                      char* dst = static_cast<char*>(args[static_cast<std::size_t>(j)].recv) +
                                  static_cast<std::int64_t>(i) * count * ext;
                      type.unpack(payload.data(), payload.size(), dst, count);
                    }
                  }
                  const std::uint64_t perRank = type.size() * static_cast<std::uint64_t>(count);
                  const double t = maxArrival(args) + depth * link.latency +
                                   static_cast<double>((size() - 1) * perRank) / link.bytesPerSecond;
                  std::fill(done.begin(), done.end(), t);
                });
}

void Comm::alltoall(const void* sendBuf, int countPerRank, const Datatype& type, void* recvBuf) {
  std::vector<int> counts(static_cast<std::size_t>(size()), countPerRank);
  std::vector<int> displs(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) displs[static_cast<std::size_t>(i)] = i * countPerRank;
  alltoallv(sendBuf, counts.data(), displs.data(), recvBuf, counts.data(), displs.data(), type);
}

void Comm::alltoallv(const void* sendBuf, const int* sendCounts, const int* sendDispls, void* recvBuf,
                     const int* recvCounts, const int* recvDispls, const Datatype& type) {
  MVIO_CHECK(sendCounts != nullptr && sendDispls != nullptr, "alltoallv: null send metadata");
  MVIO_CHECK(recvCounts != nullptr && recvDispls != nullptr, "alltoallv: null recv metadata");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.scounts = sendCounts;
  arg.sdispls = sendDispls;
  arg.rcounts = recvCounts;
  arg.rdispls = recvDispls;
  runCollective(
      *comm_, *me_, localRank_, arg, [&](const std::vector<CollArg>& args, std::vector<double>& done) {
        const auto ext = static_cast<std::int64_t>(type.extent());
        const int p = size();
        std::string payload;
        for (int i = 0; i < p; ++i) {
          const auto& src = args[static_cast<std::size_t>(i)];
          for (int j = 0; j < p; ++j) {
            const auto& dst = args[static_cast<std::size_t>(j)];
            const int n = src.scounts[j];
            MVIO_CHECK(n == dst.rcounts[i], "alltoallv: send/recv count mismatch");
            if (n == 0) continue;
            payload.clear();
            const char* from = static_cast<const char*>(src.send) + src.sdispls[j] * ext;
            type.pack(from, n, payload);
            char* to = static_cast<char*>(dst.recv) + dst.rdispls[i] * ext;
            type.unpack(payload.data(), payload.size(), to, n);
          }
        }
        // Per-rank completion: startup per peer + (bytes out + bytes in)
        // serialized through the rank's link.
        const double base = maxArrival(args);
        const std::uint64_t typeSize = type.size();
        for (int i = 0; i < p; ++i) {
          const auto& a = args[static_cast<std::size_t>(i)];
          std::uint64_t out = 0, in = 0;
          for (int j = 0; j < p; ++j) {
            out += static_cast<std::uint64_t>(a.scounts[j]);
            in += static_cast<std::uint64_t>(a.rcounts[j]);
          }
          out *= typeSize;
          in *= typeSize;
          done[static_cast<std::size_t>(i)] =
              base + (p - 1) * link.latency + static_cast<double>(out + in) / link.bytesPerSecond;
        }
      });
}

namespace {

/// Right-fold of all rank buffers in rank order (MPI canonical order for
/// non-commutative operators): result = buf0 op (buf1 op (... op bufP-1)).
/// Returns measured CPU seconds spent applying `op`.
double foldBuffers(const std::vector<CollArg>& args, std::string& acc, int count, const Datatype& type,
                   const Op& op) {
  const int p = static_cast<int>(args.size());
  acc.clear();
  type.pack(args[static_cast<std::size_t>(p - 1)].send, count, acc);
  sim::ThreadCpuTimer cpu;
  std::string inBuf;
  for (int i = p - 2; i >= 0; --i) {
    inBuf.clear();
    type.pack(args[static_cast<std::size_t>(i)].send, count, inBuf);
    // acc = in (op) acc, both as contiguous payload buffers.
    op.apply(inBuf.data(), acc.data(), count, type);
  }
  return cpu.elapsed();
}

}  // namespace

void Comm::reduce(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op,
                  int root) {
  MVIO_CHECK(root >= 0 && root < size(), "reduce: bad root");
  MVIO_CHECK(count >= 0, "reduce: negative count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());
  const std::uint64_t bytes = type.size() * static_cast<std::uint64_t>(count);

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.count = count;
  arg.a = root;
  runCollective(*comm_, *me_, localRank_, arg,
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  double opCpu = 0.0;
                  if (count > 0) {
                    std::string acc;
                    opCpu = foldBuffers(args, acc, count, type, op);
                    type.unpack(acc.data(), acc.size(), args[static_cast<std::size_t>(root)].recv, count);
                  }
                  // Tree reduction: `depth` levels, each moving the buffer
                  // once and applying the operator once (pairs in parallel).
                  const double perOp = size() > 1 ? opCpu / (size() - 1) : 0.0;
                  const double t = maxArrival(args) + depth * (link.transferSeconds(bytes) + perOp);
                  std::fill(done.begin(), done.end(), t);
                });
}

void Comm::allreduce(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op) {
  MVIO_CHECK(count >= 0, "allreduce: negative count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());
  const std::uint64_t bytes = type.size() * static_cast<std::uint64_t>(count);

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.count = count;
  runCollective(*comm_, *me_, localRank_, arg,
                [&](const std::vector<CollArg>& args, std::vector<double>& done) {
                  double opCpu = 0.0;
                  if (count > 0) {
                    std::string acc;
                    opCpu = foldBuffers(args, acc, count, type, op);
                    for (const auto& a : args) type.unpack(acc.data(), acc.size(), a.recv, count);
                  }
                  // Reduce + broadcast trees.
                  const double perOp = size() > 1 ? opCpu / (size() - 1) : 0.0;
                  const double t =
                      maxArrival(args) + depth * (2.0 * link.transferSeconds(bytes) + perOp);
                  std::fill(done.begin(), done.end(), t);
                });
}

void Comm::scan(const void* sendBuf, void* recvBuf, int count, const Datatype& type, const Op& op) {
  MVIO_CHECK(count >= 0, "scan: negative count");
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());
  const std::uint64_t bytes = type.size() * static_cast<std::uint64_t>(count);

  CollArg arg;
  arg.send = sendBuf;
  arg.recv = recvBuf;
  arg.count = count;
  runCollective(
      *comm_, *me_, localRank_, arg, [&](const std::vector<CollArg>& args, std::vector<double>& done) {
        double opCpu = 0.0;
        if (count > 0) {
          // Inclusive prefix in rank order: recv_i = s_0 op ... op s_i.
          // Computed as a running right-accumulation: each step folds the
          // next rank's buffer in on the left-to-right prefix. For
          // associative ops prefix_i = prefix_{i-1} op s_i.
          std::string acc;
          type.pack(args[0].send, count, acc);
          type.unpack(acc.data(), acc.size(), args[0].recv, count);
          sim::ThreadCpuTimer cpu;
          std::string inBuf;
          for (int i = 1; i < size(); ++i) {
            // acc = acc (op) s_i. The op computes inout = in op inout, so
            // pass acc as `in` and s_i's copy as `inout` to preserve order.
            inBuf.clear();
            type.pack(args[static_cast<std::size_t>(i)].send, count, inBuf);
            op.apply(acc.data(), inBuf.data(), count, type);
            acc.swap(inBuf);
            type.unpack(acc.data(), acc.size(), args[static_cast<std::size_t>(i)].recv, count);
          }
          opCpu = cpu.elapsed();
        }
        const double perOp = size() > 1 ? opCpu / (size() - 1) : 0.0;
        const double t = maxArrival(args) + depth * (link.transferSeconds(bytes) + perOp);
        std::fill(done.begin(), done.end(), t);
      });
}

double Comm::allreduceMax(double value) {
  double out = 0.0;
  allreduce(&value, &out, 1, Datatype::float64(), Op::max());
  return out;
}

double Comm::allreduceSum(double value) {
  double out = 0.0;
  allreduce(&value, &out, 1, Datatype::float64(), Op::sum());
  return out;
}

std::uint64_t Comm::allreduceSumU64(std::uint64_t value) {
  std::uint64_t out = 0;
  allreduce(&value, &out, 1, Datatype::uint64(), Op::sum());
  return out;
}

// ---- split -----------------------------------------------------------------

Comm Comm::split(int color, int key) {
  MVIO_CHECK(color >= 0, "split: color must be >= 0");
  CollArg arg;
  arg.a = color;
  arg.b = key;
  detail::RuntimeState* rt = comm_->rt;
  CommData* parent = comm_;
  const sim::LinkModel& link = comm_->spansNodes ? machine().interNode : machine().intraNode;
  const int depth = detail::treeDepth(size());

  runCollective(
      *comm_, *me_, localRank_, arg, [&](const std::vector<CollArg>& args, std::vector<double>& done) {
        // Group local ranks by color, order by (key, world rank).
        struct Member {
          int color;
          int key;
          int localRank;
        };
        std::vector<Member> members;
        for (int i = 0; i < parent->size(); ++i) {
          members.push_back({args[static_cast<std::size_t>(i)].a, args[static_cast<std::size_t>(i)].b, i});
        }
        std::sort(members.begin(), members.end(), [&](const Member& x, const Member& y) {
          if (x.color != y.color) return x.color < y.color;
          if (x.key != y.key) return x.key < y.key;
          return parent->globalRanks[static_cast<std::size_t>(x.localRank)] <
                 parent->globalRanks[static_cast<std::size_t>(y.localRank)];
        });
        std::size_t i = 0;
        while (i < members.size()) {
          std::size_t j = i;
          while (j < members.size() && members[j].color == members[i].color) ++j;
          auto sub = std::make_shared<CommData>();
          std::vector<int> globals;
          for (std::size_t k = i; k < j; ++k) {
            globals.push_back(parent->globalRanks[static_cast<std::size_t>(members[k].localRank)]);
          }
          rt->initComm(*sub, std::move(globals));
          {
            std::lock_guard<std::mutex> lock(rt->subMutex);
            rt->subComms.push_back(sub);
          }
          for (std::size_t k = i; k < j; ++k) {
            parent->coll.splitComm[static_cast<std::size_t>(members[k].localRank)] = sub;
            parent->coll.splitLocalRank[static_cast<std::size_t>(members[k].localRank)] =
                static_cast<int>(k - i);
          }
          i = j;
        }
        const double t = maxArrival(args) + depth * link.latency;
        std::fill(done.begin(), done.end(), t);
      });

  // Pick up this rank's result (written under the collective lock).
  std::shared_ptr<CommData> sub;
  int newLocal = 0;
  {
    std::lock_guard<std::mutex> lock(parent->coll.m);
    sub = parent->coll.splitComm[static_cast<std::size_t>(localRank_)];
    newLocal = parent->coll.splitLocalRank[static_cast<std::size_t>(localRank_)];
    parent->coll.splitComm[static_cast<std::size_t>(localRank_)].reset();
  }
  MVIO_CHECK(sub != nullptr, "split: internal error (no group assigned)");
  return Comm(sub.get(), me_, newLocal);
}

// ---- Runtime ---------------------------------------------------------------

void Runtime::run(int nprocs, const sim::MachineModel& machine, const std::function<void(Comm&)>& fn) {
  MVIO_CHECK(nprocs >= 1, "need at least one rank");
  MVIO_CHECK(nprocs <= machine.totalRanks(),
             "machine model too small: " + std::to_string(nprocs) + " ranks > " +
                 std::to_string(machine.totalRanks()) + " slots");
  MVIO_CHECK(fn != nullptr, "rank function required");

  sim::beginTimeline();  // fresh rank clocks: storage queues from earlier runs no longer apply
  detail::RuntimeState rt;
  rt.machine = machine;
  rt.nprocs = nprocs;
  rt.ranks.resize(static_cast<std::size_t>(nprocs));
  std::vector<int> globals(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    rt.ranks[static_cast<std::size_t>(i)].worldRank = i;
    globals[static_cast<std::size_t>(i)] = i;
  }
  rt.initComm(rt.world, std::move(globals));

  std::mutex errMutex;
  std::exception_ptr firstError;

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    threads.emplace_back([&, i] {
      Comm comm(&rt.world, &rt.ranks[static_cast<std::size_t>(i)], i);
      // Thread-local observability context: rank id + virtual clock for
      // the logger and any obs::Session the rank function installs.
      obs::detail::RankScope obsScope(i, &rt.ranks[static_cast<std::size_t>(i)].clock);
      try {
        fn(comm);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(errMutex);
          if (!firstError) firstError = std::current_exception();
        }
        rt.abortAll();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (firstError) std::rethrow_exception(firstError);
}

void Runtime::run(int nprocs, const std::function<void(Comm&)>& fn) {
  run(nprocs, sim::MachineModel::testbed(nprocs), fn);
}

}  // namespace mvio::mpi
