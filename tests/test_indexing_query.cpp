// Distributed indexing (Figure 20's workload) and batch range query
// tests, validated against brute-force references.

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>

#include "core/indexing.hpp"
#include "core/range_query.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

namespace {

struct Fixture {
  std::shared_ptr<mp::Volume> volume;
  std::vector<mg::Geometry> reference;
  mc::WktParser parser;
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");

  explicit Fixture(std::uint64_t seed, std::uint64_t count, mo::DatasetId id = mo::DatasetId::kRoadNetwork) {
    mp::LustreParams params;
    params.nodes = 8;
    volume = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
    mo::SynthSpec spec = mo::datasetSpec(id, seed);
    spec.space.world = mg::Envelope(0, 0, 20, 20);
    spec.space.clusters = 5;
    spec.space.clusterStddev = 3.0;
    const mo::RecordGenerator gen(spec);
    const std::string text = mo::generateWktText(gen, count);
    volume->create("data.wkt", std::make_shared<mp::MemoryBackingStore>(text));
    parser.parseAll(text, [&](mg::Geometry&& g) { reference.push_back(std::move(g)); });
  }

  [[nodiscard]] std::uint64_t bruteForceCount(const mg::Envelope& q) const {
    const auto qg = mg::Geometry::box(q);
    std::uint64_t n = 0;
    for (const auto& g : reference) {
      if (g.envelope().intersects(q) && mg::intersects(qg, g)) ++n;
    }
    return n;
  }
};

}  // namespace

TEST(DistributedIndex, GlobalQueryCountsMatchBruteForce) {
  Fixture fx(3, 150);
  const std::vector<mg::Envelope> queries = {
      {2, 2, 6, 6}, {0, 0, 20, 20}, {10, 10, 10.5, 10.5}, {19, 19, 25, 25}, {-5, -5, -1, -1}};

  for (int nprocs : {1, 3, 5}) {
    std::vector<std::uint64_t> counts(queries.size(), 0);
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::IndexingConfig cfg;
      cfg.framework.gridCells = 49;
      mc::DatasetHandle data{"data.wkt", fx.wkt};
      mc::IndexingStats stats;
      const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
      EXPECT_GT(stats.globalGeometries, 0u);
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const std::uint64_t local = index.queryCount(queries[q]);
        std::lock_guard<std::mutex> lock(mu);
        counts[q] += local;
      }
    });
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(counts[q], fx.bruteForceCount(queries[q]))
          << "nprocs=" << nprocs << " query=" << q;
    }
  }
}

TEST(DistributedIndex, FullCoverageQueryFindsEverything) {
  Fixture fx(5, 100);
  std::atomic<std::uint64_t> total{0};
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::IndexingConfig cfg;
    cfg.framework.gridCells = 25;
    mc::DatasetHandle data{"data.wkt", fx.wkt};
    const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg);
    total += index.queryCount(mg::Envelope(-100, -100, 100, 100));
  });
  EXPECT_EQ(total.load(), fx.reference.size());
}

TEST(DistributedIndex, PhaseBreakdownPopulated) {
  Fixture fx(6, 200);
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::IndexingConfig cfg;
    cfg.framework.gridCells = 64;
    mc::DatasetHandle data{"data.wkt", fx.wkt};
    mc::IndexingStats stats;
    (void)mc::buildDistributedIndex(comm, *fx.volume, data, cfg, &stats);
    const auto maxPhases = stats.phases.maxAcross(comm);
    EXPECT_GT(maxPhases.read, 0.0);
    EXPECT_GT(maxPhases.parse, 0.0);
    EXPECT_GT(maxPhases.comm, 0.0);
    EXPECT_GT(maxPhases.compute, 0.0);
  });
}

TEST(BatchRangeQuery, CountsMatchBruteForce) {
  Fixture fx(8, 160, mo::DatasetId::kLakes);
  std::vector<mg::Envelope> queries;
  mvio::util::Rng rng(21);
  for (int i = 0; i < 12; ++i) {
    const double x = rng.uniform(0, 18), y = rng.uniform(0, 18);
    queries.emplace_back(x, y, x + rng.uniform(0.5, 5), y + rng.uniform(0.5, 5));
  }

  for (int nprocs : {1, 4}) {
    std::vector<std::uint64_t> fromPipeline;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
      mc::RangeQueryConfig cfg;
      cfg.framework.gridCells = 36;
      mc::DatasetHandle data{"data.wkt", fx.wkt};
      const auto counts = mc::batchRangeQuery(comm, *fx.volume, data, queries, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        fromPipeline = counts;
      }
    });
    ASSERT_EQ(fromPipeline.size(), queries.size());
    for (std::size_t q = 0; q < queries.size(); ++q) {
      EXPECT_EQ(fromPipeline[q], fx.bruteForceCount(queries[q])) << "nprocs=" << nprocs << " q=" << q;
    }
  }
}
