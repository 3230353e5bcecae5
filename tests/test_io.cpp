// MPI-IO layer tests: file views (run decomposition), independent and
// collective reads/writes at every access level, aggregator selection
// (the Fig-11 ROMIO-on-Lustre rule), ROMIO 2 GB limit, and agreement
// between Level 0 and Level 1 on real content.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "io/aggregator.hpp"
#include "io/file.hpp"
#include "mpi/runtime.hpp"
#include "pfs/lustre.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mi = mvio::io;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;

namespace {

std::shared_ptr<mp::Volume> makeVolume(int nodes = 4) {
  mp::LustreParams params;
  params.nodes = nodes;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

std::string patternBytes(std::size_t n) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; ++i) s[i] = static_cast<char>('A' + (i % 23));
  return s;
}

}  // namespace

// ---- ViewMap ----------------------------------------------------------------

TEST(ViewMap, DefaultViewIsPassthrough) {
  mi::ViewMap v;
  EXPECT_TRUE(v.isContiguousByteView());
  const auto runs = v.runs(100, 50);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 100u);
  EXPECT_EQ(runs[0].length, 50u);
}

TEST(ViewMap, StridedFiletypeProducesHoles) {
  // filetype = vector(1 block of 8 bytes every 32 bytes): visible bytes are
  // [0,8) of each 32-byte tile.
  const auto ft = mm::Datatype::vector(1, 1, 1, mm::Datatype::float64()).resized(0, 32);
  mi::ViewMap v(0, mm::Datatype::byte(), ft);
  EXPECT_EQ(v.tileSize(), 8u);
  const auto runs = v.runs(0, 24);
  ASSERT_EQ(runs.size(), 3u);
  EXPECT_EQ(runs[0].offset, 0u);
  EXPECT_EQ(runs[1].offset, 32u);
  EXPECT_EQ(runs[2].offset, 64u);
  for (const auto& r : runs) EXPECT_EQ(r.length, 8u);
}

TEST(ViewMap, MidTileStartAndDisplacement) {
  const auto ft = mm::Datatype::vector(1, 1, 1, mm::Datatype::float64()).resized(0, 16);
  mi::ViewMap v(100, mm::Datatype::byte(), ft);
  const auto runs = v.runs(4, 8);  // last 4 bytes of tile 0, first 4 of tile 1
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[0].offset, 104u);
  EXPECT_EQ(runs[0].length, 4u);
  EXPECT_EQ(runs[1].offset, 116u);
  EXPECT_EQ(runs[1].length, 4u);
}

TEST(ViewMap, CoalescesAdjacentRuns) {
  mi::ViewMap v(0, mm::Datatype::byte(), mm::Datatype::contiguous(64, mm::Datatype::byte()));
  const auto runs = v.runs(10, 100);  // spans tiles but fully contiguous
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].offset, 10u);
  EXPECT_EQ(runs[0].length, 100u);
}

// ---- Aggregator selection -----------------------------------------------------

TEST(Aggregators, LustreDivisorRule) {
  // stripeCount % nodes == 0 or nodes % stripeCount == 0 -> nodes readers.
  EXPECT_EQ(mi::aggregatorCount(16, 64, true, 0), 16);
  EXPECT_EQ(mi::aggregatorCount(32, 64, true, 0), 32);
  EXPECT_EQ(mi::aggregatorCount(64, 64, true, 0), 64);
  EXPECT_EQ(mi::aggregatorCount(4, 64, true, 0), 4);
  // The paper's cliff cases on 64 OSTs: 24 nodes -> 16 readers, 48 -> 32.
  EXPECT_EQ(mi::aggregatorCount(24, 64, true, 0), 16);
  EXPECT_EQ(mi::aggregatorCount(48, 64, true, 0), 32);
  EXPECT_EQ(mi::aggregatorCount(72, 64, true, 0), 64);  // largest divisor <= 72
  // 96 OSTs: 36 nodes -> 32 readers.
  EXPECT_EQ(mi::aggregatorCount(36, 96, true, 0), 32);
}

TEST(Aggregators, HintAndGpfsDefaults) {
  EXPECT_EQ(mi::aggregatorCount(24, 64, true, 8), 8);    // cb_nodes hint wins
  EXPECT_EQ(mi::aggregatorCount(24, 64, true, 999), 24); // clamped to nodes
  EXPECT_EQ(mi::aggregatorCount(24, 64, false, 0), 24);  // GPFS: one per node
}

TEST(Aggregators, RanksSpreadAcrossNodes) {
  mm::Runtime::run(32, mvio::sim::MachineModel::comet(2), [](mm::Comm& comm) {
    const auto ranks = mi::chooseAggregatorRanks(comm, 2);
    ASSERT_EQ(ranks.size(), 2u);
    EXPECT_EQ(comm.nodeOfRank(ranks[0]), 0);
    EXPECT_EQ(comm.nodeOfRank(ranks[1]), 1);
  });
}

// ---- File reads ---------------------------------------------------------------

TEST(FileIo, IndependentReadReturnsExactBytes) {
  auto vol = makeVolume();
  const std::string content = patternBytes(10000);
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(content), {1 << 10, 4});
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    std::string buf(1000, '\0');
    const std::size_t got = f.readAtBytes(2500, buf.data(), 1000);
    EXPECT_EQ(got, 1000u);
    EXPECT_EQ(buf, content.substr(2500, 1000));
    // Clipped read at EOF.
    const std::size_t tail = f.readAtBytes(9500, buf.data(), 1000);
    EXPECT_EQ(tail, 500u);
    // Read past EOF.
    EXPECT_EQ(f.readAtBytes(20000, buf.data(), 10), 0u);
    // Reading advances the virtual clock.
    EXPECT_GT(comm.clock().now(), 0.0);
  });
}

TEST(FileIo, CollectiveReadMatchesIndependent) {
  auto vol = makeVolume();
  const std::string content = patternBytes(1 << 16);
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(content), {1 << 12, 8});
  mm::Runtime::run(8, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    const std::size_t chunk = (1 << 16) / 8;
    const std::uint64_t myOff = static_cast<std::uint64_t>(comm.rank()) * chunk;
    std::string viaCollective(chunk, '\0');
    f.readAtAllBytes(myOff, viaCollective.data(), chunk);
    EXPECT_EQ(viaCollective, content.substr(myOff, chunk));
  });
}

TEST(FileIo, BackToBackRunsOnOneVolumeReportIdenticalReadTimes) {
  // Storage queues left by one run must not delay the next on the same
  // Volume. One rank, so host thread order cannot reorder queue slots.
  auto vol = makeVolume();
  const std::string content = patternBytes(1 << 16);
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(content), {1 << 12, 4});
  auto readTime = [&] {
    double t = 0;
    mm::Runtime::run(1, mvio::sim::MachineModel::comet(1), [&](mm::Comm& comm) {
      auto f = mi::File::open(comm, *vol, "f");
      std::string buf(content.size(), '\0');
      const double t0 = comm.clock().now();
      f.readAtBytes(0, buf.data(), buf.size());
      f.readAtAllBytes(0, buf.data(), buf.size());
      t = comm.clock().now() - t0;
    });
    return t;
  };
  const double first = readTime();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(readTime(), first) << "the second run queued behind the first run's requests";
}

TEST(FileIo, CollectiveRunListReadAssemblesRunsInOrder) {
  // readAtAllRuns: one two-phase collective over each rank's ascending
  // runs (here every rank's blocks of three strided iterations, as a
  // partitioned reader's window asks), assembled back to back in run
  // order; rank 3 asks for nothing and still participates.
  auto vol = makeVolume();
  const std::string content = patternBytes(1 << 14);
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(content), {1 << 10, 4});
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    const std::uint64_t block = 700;
    std::vector<mi::Run> runs;
    std::string want;
    if (comm.rank() != 3) {
      for (std::uint64_t i = 0; i < 3; ++i) {
        const std::uint64_t off = (i * 4 + static_cast<std::uint64_t>(comm.rank())) * block;
        runs.push_back({off, block});
        want += content.substr(off, block);
      }
    }
    std::string got(want.size(), '\0');
    EXPECT_EQ(f.readAtAllRuns(runs, got.data()), want.size());
    EXPECT_EQ(got, want);
  });
  mm::Runtime::run(1, [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    std::string buf(64, '\0');
    EXPECT_THROW(f.readAtAllRuns({{32, 32}, {0, 32}}, buf.data()), mvio::util::Error)
        << "runs must ascend";
    EXPECT_THROW(f.readAtAllRuns({{0, 40}, {32, 24}}, buf.data()), mvio::util::Error)
        << "runs must not overlap";
  });
}

TEST(FileIo, CollectiveReadWithIdleRanks) {
  auto vol = makeVolume();
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(patternBytes(4096)), {1 << 10, 4});
  mm::Runtime::run(6, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    // Only ranks 0 and 3 request data; the call is still collective.
    std::string buf(512, '\0');
    const std::size_t n = (comm.rank() == 0 || comm.rank() == 3) ? 512 : 0;
    const std::size_t got = f.readAtAllBytes(static_cast<std::uint64_t>(comm.rank()) * 512, buf.data(), n);
    EXPECT_EQ(got, n);
  });
}

TEST(FileIo, RomioTwoGbLimitEnforced) {
  auto vol = makeVolume();
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(std::string(16, 'x')), {});
  mm::Runtime::run(1, [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    std::string buf(16, '\0');
    EXPECT_THROW(f.readAtBytes(0, buf.data(), (1ull << 31) + 5), mvio::util::Error);
  });
}

TEST(FileIo, TypedReadWithNonContiguousView) {
  // File of 64 MBR records (4 doubles); view selects the first double of
  // each record (a column), level 2: independent + non-contiguous.
  auto vol = makeVolume();
  std::string content(64 * 32, '\0');
  for (int i = 0; i < 64; ++i) {
    double vals[4] = {i + 0.25, i + 0.5, i + 0.75, i + 1.0};
    std::memcpy(content.data() + i * 32, vals, 32);
  }
  vol->create("rects", std::make_shared<mp::MemoryBackingStore>(content), {1 << 10, 4});
  mm::Runtime::run(2, mvio::sim::MachineModel::comet(1), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "rects");
    const auto column = mm::Datatype::vector(1, 1, 1, mm::Datatype::float64()).resized(0, 32);
    f.setView(0, mm::Datatype::float64(), column);
    std::vector<double> vals(10, 0.0);
    const int got =
        f.readAt(static_cast<std::uint64_t>(comm.rank()) * 10, vals.data(), 10, mm::Datatype::float64());
    EXPECT_EQ(got, 10);
    for (int k = 0; k < 10; ++k) {
      EXPECT_DOUBLE_EQ(vals[static_cast<std::size_t>(k)], comm.rank() * 10 + k + 0.25);
    }
    EXPECT_GT(f.counters().bytesMoved, 10 * 8u);  // data sieving read holes too
  });
}

TEST(FileIo, CollectiveNonContiguousMatchesIndependent) {
  auto vol = makeVolume();
  mvio::util::Rng rng(9);
  std::string content(1 << 15, '\0');
  for (auto& c : content) c = static_cast<char>(rng.below(256));
  vol->create("bin", std::make_shared<mp::MemoryBackingStore>(content), {1 << 10, 8});
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(2), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "bin");
    // Round-robin 64-byte records across 4 ranks: rank r sees records
    // r, r+4, r+8, ... (the Figure 4 non-contiguous pattern).
    const auto record = mm::Datatype::contiguous(64, mm::Datatype::byte());
    const auto filetype = mm::Datatype::vector(1, 1, 1, record).resized(0, 4 * 64);
    f.setView(static_cast<std::uint64_t>(comm.rank()) * 64, mm::Datatype::byte(), filetype);
    const int records = (1 << 15) / (4 * 64);
    std::string mine(static_cast<std::size_t>(records) * 64, '\0');
    f.readAtAll(0, mine.data(), records, record);
    for (int k = 0; k < records; ++k) {
      const std::size_t fileOff = static_cast<std::size_t>(k) * 256 + static_cast<std::size_t>(comm.rank()) * 64;
      EXPECT_EQ(0, std::memcmp(mine.data() + static_cast<std::size_t>(k) * 64, content.data() + fileOff, 64))
          << "rank " << comm.rank() << " record " << k;
    }
  });
}

TEST(FileIo, WriteAtThenReadBack) {
  auto vol = makeVolume();
  vol->create("out", std::make_shared<mp::MemoryBackingStore>(std::uint64_t{4096}), {1 << 10, 4});
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(2), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "out");
    std::string mine(1024, static_cast<char>('a' + comm.rank()));
    f.writeAtBytes(static_cast<std::uint64_t>(comm.rank()) * 1024, mine.data(), 1024);
    comm.barrier();
    std::string all(4096, '\0');
    f.readAtBytes(0, all.data(), 4096);
    for (int r = 0; r < 4; ++r) {
      EXPECT_EQ(all[static_cast<std::size_t>(r) * 1024], 'a' + r);
    }
  });
}

TEST(FileIo, CollectiveWriteRowMajorOutput) {
  // The Figure 4 output scenario: data distributed round-robin among
  // ranks, written collectively so the file ends up in row-major order.
  auto vol = makeVolume();
  const int ranks = 4, records = 32, recordBytes = 16;
  vol->create("grid_out",
              std::make_shared<mp::MemoryBackingStore>(std::uint64_t{records * recordBytes}),
              {1 << 10, 4});
  mm::Runtime::run(ranks, mvio::sim::MachineModel::comet(2), [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "grid_out");
    const auto record = mm::Datatype::contiguous(recordBytes, mm::Datatype::byte());
    const auto filetype = mm::Datatype::vector(1, 1, 1, record).resized(0, ranks * recordBytes);
    f.setView(static_cast<std::uint64_t>(comm.rank()) * recordBytes, mm::Datatype::byte(), filetype);
    const int myRecords = records / ranks;
    std::string mine;
    for (int k = 0; k < myRecords; ++k) {
      // Record content identifies (rank, k).
      std::string rec(recordBytes, static_cast<char>('A' + comm.rank()));
      rec[1] = static_cast<char>('0' + k);
      mine += rec;
    }
    f.writeAtAll(0, mine.data(), myRecords, record);
    comm.barrier();
    if (comm.rank() == 0) {
      std::string all(records * recordBytes, '\0');
      f.setView(0, mm::Datatype::byte(), mm::Datatype::byte());
      f.readAtBytes(0, all.data(), all.size());
      for (int g = 0; g < records; ++g) {
        EXPECT_EQ(all[static_cast<std::size_t>(g) * recordBytes], 'A' + (g % ranks)) << "record " << g;
        EXPECT_EQ(all[static_cast<std::size_t>(g) * recordBytes + 1], '0' + (g / ranks));
      }
    }
  });
}

TEST(FileIo, AggregatorsFollowRuleAtOpen) {
  mp::LustreParams params;
  params.nodes = 24;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  vol->create("f", std::make_shared<mp::MemoryBackingStore>(patternBytes(1 << 12)), {1 << 10, 64});
  // 24 nodes vs 64 OSTs: the paper's pathological case -> 16 readers.
  // 2 ranks per node keeps the thread count manageable.
  mvio::sim::MachineModel machine = mvio::sim::MachineModel::comet(24);
  machine.ranksPerNode = 2;
  mm::Runtime::run(48, machine, [&](mm::Comm& comm) {
    auto f = mi::File::open(comm, *vol, "f");
    EXPECT_EQ(f.aggregatorRanks().size(), 16u);
  });
}
