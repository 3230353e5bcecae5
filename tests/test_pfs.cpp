// Parallel-filesystem simulator tests: backing stores (content
// correctness, generated-block determinism, LRU), storage model
// properties (queueing, caps, monotonicity), volume registry.

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "pfs/backing.hpp"
#include "pfs/gpfs.hpp"
#include "pfs/lustre.hpp"
#include "pfs/volume.hpp"
#include "sim/clock.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace mp = mvio::pfs;

TEST(MemoryBacking, ReadWrite) {
  mp::MemoryBackingStore store(std::string("hello world"));
  char buf[5];
  store.read(6, buf, 5);
  EXPECT_EQ(std::string(buf, 5), "world");
  store.write(0, "HELLO", 5);
  EXPECT_EQ(store.contents().substr(0, 5), "HELLO");
  EXPECT_THROW(store.read(8, buf, 5), mvio::util::Error);
}

TEST(GeneratedBacking, DeterministicAcrossReadsAndBlocks) {
  auto gen = [](std::uint64_t blockIndex, char* out, std::size_t n) {
    mvio::util::Rng rng(blockIndex + 1);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>('a' + rng.below(26));
  };
  mp::GeneratedBackingStore store(1000, 64, gen, 2);  // tiny cache to force eviction
  std::string first(1000, '\0');
  store.read(0, first.data(), 1000);
  // Random-access re-reads return identical bytes despite LRU eviction.
  mvio::util::Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto off = rng.below(990);
    char buf[10];
    store.read(off, buf, 10);
    EXPECT_EQ(0, std::memcmp(buf, first.data() + off, 10));
  }
}

TEST(GeneratedBacking, CrossBlockReads) {
  auto gen = [](std::uint64_t blockIndex, char* out, std::size_t n) {
    std::memset(out, static_cast<int>('A' + blockIndex % 26), n);
  };
  mp::GeneratedBackingStore store(300, 100, gen);
  std::string buf(150, '\0');
  store.read(50, buf.data(), 150);
  EXPECT_EQ(buf.substr(0, 50), std::string(50, 'A'));
  EXPECT_EQ(buf.substr(50, 100), std::string(100, 'B'));
}

TEST(GeneratedBacking, ConcurrentReadsAreSafe) {
  auto gen = [](std::uint64_t blockIndex, char* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<char>((blockIndex * 131 + i) % 251);
  };
  mp::GeneratedBackingStore store(1 << 16, 1 << 10, gen, 4);
  std::vector<std::thread> threads;
  std::atomic<bool> ok{true};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      mvio::util::Rng rng(static_cast<std::uint64_t>(t) + 99);
      char buf[256];
      for (int i = 0; i < 500; ++i) {
        const auto off = rng.below((1 << 16) - 256);
        store.read(off, buf, 256);
        for (std::size_t k = 0; k < 256; ++k) {
          const std::uint64_t abs = off + k;
          const char expect = static_cast<char>(((abs / 1024) * 131 + (abs % 1024)) % 251);
          if (buf[k] != expect) ok = false;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_TRUE(ok.load());
}

// ---- Lustre model ------------------------------------------------------------

TEST(LustreModel, SingleRequestCost) {
  mp::LustreParams p;
  p.osts = 4;
  p.ostBandwidth = 1e9;
  p.ostLatency = 1e-3;
  p.clientBandwidth = 1e12;     // not binding
  p.aggregateBandwidth = 1e12;  // not binding
  p.congestionFactor = 0.0;
  p.nodes = 2;
  mp::LustreModel m(p);
  // One stripe-sized request to one OST.
  const double t = m.read(0, {1 << 20, 4}, 0, 1 << 20, 0.0);
  EXPECT_NEAR(t, 1e-3 + static_cast<double>(1 << 20) / 1e9, 1e-9);
}

TEST(LustreModel, StripingParallelizesAcrossOsts) {
  mp::LustreParams p;
  p.osts = 8;
  p.ostBandwidth = 1e9;
  p.ostLatency = 0.0;
  p.clientBandwidth = 1e15;
  p.aggregateBandwidth = 1e15;
  p.congestionFactor = 0.0;
  p.nodes = 1;
  mp::LustreModel wide(p);
  // 8 MB over 8 OSTs with 1 MB stripes: each OST serves 1 MB in parallel.
  const double striped = wide.read(0, {1 << 20, 8}, 0, 8 << 20, 0.0);
  mp::LustreModel narrow(p);
  const double single = narrow.read(0, {1 << 20, 1}, 0, 8 << 20, 0.0);
  EXPECT_NEAR(striped, static_cast<double>(1 << 20) / 1e9, 1e-9);
  EXPECT_NEAR(single, static_cast<double>(8 << 20) / 1e9, 1e-9);
  EXPECT_LT(striped, single / 4);
}

TEST(LustreModel, QueueingSerializesSameOst) {
  mp::LustreParams p;
  p.osts = 2;
  p.ostBandwidth = 1e9;
  p.ostLatency = 0.0;
  p.clientBandwidth = 1e15;
  p.aggregateBandwidth = 1e15;
  p.congestionFactor = 0.0;
  p.nodes = 2;
  mp::LustreModel m(p);
  const mp::StripeSettings s{1 << 20, 2};
  // Two requests to stripe 0 (same OST) at the same start time: serialized.
  const double t1 = m.read(0, s, 0, 1 << 20, 0.0);
  const double t2 = m.read(1, s, 0, 1 << 20, 0.0);
  const double unit = static_cast<double>(1 << 20) / 1e9;
  EXPECT_NEAR(t1, unit, 1e-9);
  EXPECT_NEAR(t2, 2 * unit, 1e-9);
  // A request to stripe 1 (other OST) is not delayed.
  const double t3 = m.read(0, s, 1 << 20, 1 << 20, 0.0);
  EXPECT_NEAR(t3, unit, 1e-9);
}

TEST(LustreModel, ClientCapBindsPerNode) {
  mp::LustreParams p;
  p.osts = 64;
  p.ostBandwidth = 1e12;  // OSTs infinitely fast
  p.ostLatency = 0.0;
  p.clientBandwidth = 1e9;
  p.aggregateBandwidth = 1e15;
  p.congestionFactor = 0.0;
  p.nodes = 2;
  mp::LustreModel m(p);
  const mp::StripeSettings s{1 << 20, 64};
  // 16 MB from node 0: limited by the 1 GB/s client.
  const double t = m.read(0, s, 0, 16 << 20, 0.0);
  EXPECT_NEAR(t, static_cast<double>(16 << 20) / 1e9, 1e-6);
  // Node 1 is an independent client.
  const double t2 = m.read(1, s, 0, 16 << 20, 0.0);
  EXPECT_NEAR(t2, static_cast<double>(16 << 20) / 1e9, 1e-6);
}

TEST(LustreModel, CongestionAddsLatencyUnderBacklog) {
  mp::LustreParams p;
  p.osts = 1;
  p.ostBandwidth = 1e9;
  p.ostLatency = 1e-3;
  p.clientBandwidth = 1e15;
  p.aggregateBandwidth = 1e15;
  p.congestionFactor = 0.5;
  p.nodes = 1;
  mp::LustreModel m(p);
  const mp::StripeSettings s{1 << 20, 1};
  const double t1 = m.read(0, s, 0, 1 << 20, 0.0);
  const double t2 = m.read(0, s, 0, 1 << 20, 0.0);  // arrives while busy
  const double base = 1e-3 + static_cast<double>(1 << 20) / 1e9;
  EXPECT_NEAR(t1, base, 1e-9);
  EXPECT_GT(t2, 2 * base);  // congestion penalty on the queued request
}

TEST(LustreModel, NewTimelineClearsQueues) {
  mp::LustreParams p;
  p.nodes = 1;
  mp::LustreModel m(p);
  const mp::StripeSettings s{1 << 20, 4};
  const double t1 = m.read(0, s, 0, 1 << 20, 0.0);
  EXPECT_GT(m.read(0, s, 0, 1 << 20, 0.0), t1) << "same timeline: the second read queues";
  mvio::sim::beginTimeline();  // what every new run of the MPI runtime does first
  const double t2 = m.read(0, s, 0, 1 << 20, 0.0);
  EXPECT_DOUBLE_EQ(t1, t2);
}

TEST(GpfsModel, IgnoresStripingAndUsesFsBlocks) {
  mp::GpfsParams p;
  p.nsdServers = 4;
  p.fsBlockSize = 1 << 20;
  p.serverBandwidth = 1e9;
  p.serverLatency = 0.0;
  p.clientBandwidth = 1e15;
  p.aggregateBandwidth = 1e15;
  p.nodes = 1;
  mp::GpfsModel m(p);
  // Striping settings are a no-op on GPFS; 4 MB spreads over 4 servers.
  const double t = m.read(0, {123, 1}, 0, 4 << 20, 0.0);
  EXPECT_NEAR(t, static_cast<double>(1 << 20) / 1e9, 1e-9);
  EXPECT_FALSE(m.supportsStriping());
}

TEST(Volume, RegistryAndStripeClamping) {
  auto model = std::make_shared<mp::LustreModel>(mp::LustreParams{});
  mp::Volume vol(model);
  vol.create("a.wkt", std::make_shared<mp::MemoryBackingStore>(std::string("data")), {1 << 20, 500});
  EXPECT_TRUE(vol.exists("a.wkt"));
  EXPECT_EQ(vol.lookup("a.wkt")->stripe.stripeCount, 96);  // clamped to OST pool
  EXPECT_THROW(vol.create("a.wkt", std::make_shared<mp::MemoryBackingStore>(std::string("x")), {}),
               mvio::util::Error);
  EXPECT_THROW(vol.lookup("missing"), mvio::util::Error);
  vol.remove("a.wkt");
  EXPECT_FALSE(vol.exists("a.wkt"));
}
