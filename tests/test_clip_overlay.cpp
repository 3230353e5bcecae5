// Rectangle clipping and the grid-coverage overlay: clipping exactness
// (Sutherland-Hodgman / Liang-Barsky), the partition invariant (per-cell
// clipped measures sum to the global measure), and the Figure-4 row-major
// collective output file.

#include <gtest/gtest.h>

#include <mutex>

#include "core/overlay.hpp"
#include "geom/clip.hpp"
#include "geom/wkt.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/rng.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;

// ---- Ring clipping -----------------------------------------------------------

TEST(Clip, SquareFullyInsideAndOutside) {
  const std::vector<mg::Coord> square = {{2, 2}, {4, 2}, {4, 4}, {2, 4}, {2, 2}};
  const auto inside = mg::clipRingToRect(square, mg::Envelope(0, 0, 10, 10));
  EXPECT_EQ(inside.size(), 5u);
  const auto outside = mg::clipRingToRect(square, mg::Envelope(20, 20, 30, 30));
  EXPECT_TRUE(outside.empty());
}

TEST(Clip, HalfOverlapArea) {
  const auto g = mg::readWkt("POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))");
  EXPECT_DOUBLE_EQ(mg::clippedArea(g, mg::Envelope(2, 0, 10, 10)), 8.0);
  EXPECT_DOUBLE_EQ(mg::clippedArea(g, mg::Envelope(2, 2, 3, 3)), 1.0);  // rect inside polygon
  EXPECT_DOUBLE_EQ(mg::clippedArea(g, mg::Envelope(-10, -10, 20, 20)), 16.0);
}

TEST(Clip, PolygonWithHole) {
  const auto g = mg::readWkt("POLYGON ((0 0, 10 0, 10 10, 0 10, 0 0), (4 4, 6 4, 6 6, 4 6, 4 4))");
  // Clip to the left half: shell 50, hole 2x1 -> 48.
  EXPECT_DOUBLE_EQ(mg::clippedArea(g, mg::Envelope(0, 0, 5, 10)), 50.0 - 2.0);
}

TEST(Clip, SegmentCases) {
  const mg::Envelope r(0, 0, 10, 10);
  auto s = mg::clipSegmentToRect({-5, 5}, {15, 5}, r);
  ASSERT_TRUE(s.has_value());
  EXPECT_DOUBLE_EQ(mg::distance(s->first, s->second), 10.0);
  EXPECT_FALSE(mg::clipSegmentToRect({-5, 20}, {15, 20}, r).has_value());
  s = mg::clipSegmentToRect({2, 2}, {3, 3}, r);  // fully inside
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(mg::distance(s->first, s->second), std::sqrt(2.0), 1e-12);
}

TEST(Clip, LineLength) {
  const auto g = mg::Geometry::lineString({{-5, 0}, {5, 0}, {5, 20}});
  // Inside [0,10]^2... wait the line runs along y=0 and x=5.
  EXPECT_DOUBLE_EQ(mg::clippedLength(g, mg::Envelope(0, 0, 10, 10)), 5.0 + 10.0);
}

TEST(Clip, MeasureByType) {
  EXPECT_EQ(mg::clippedMeasure(mg::Geometry::point({1, 1}), mg::Envelope(0, 0, 2, 2)), 1.0);
  EXPECT_EQ(mg::clippedMeasure(mg::Geometry::point({5, 5}), mg::Envelope(0, 0, 2, 2)), 0.0);
}

class ClipPartition : public ::testing::TestWithParam<int> {};

TEST_P(ClipPartition, CellMeasuresSumToGlobalMeasure) {
  // The invariant the overlay depends on: clipping a geometry to every
  // cell of a partitioning grid and summing equals the global measure.
  mvio::util::Rng rng(100 + GetParam());
  const mc::GridSpec grid(mg::Envelope(0, 0, 20, 20), 5, 4);
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kLakes, 50 + GetParam());
  spec.space.world = mg::Envelope(1, 1, 19, 19);  // strictly inside the grid
  spec.maxRadius = 1.0;
  const mo::RecordGenerator gen(spec);
  for (int i = 0; i < 40; ++i) {
    const auto g = gen.geometry(static_cast<std::uint64_t>(i));
    double sum = 0;
    for (int c = 0; c < grid.cellCount(); ++c) {
      sum += mg::clippedMeasure(g, grid.cellEnvelope(c));
    }
    EXPECT_NEAR(sum, mg::area(g), 1e-9 * std::max(1.0, mg::area(g)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClipPartition, ::testing::Values(1, 2, 3));

// ---- Overlay end-to-end -------------------------------------------------------

TEST(Overlay, CoverageSumsMatchAndFileIsRowMajor) {
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));

  mo::SynthSpec polys = mo::datasetSpec(mo::DatasetId::kLakes, 61);
  polys.space.world = mg::Envelope(0, 0, 40, 40);
  polys.maxRadius = 1.5;
  const std::string textR = mo::generateWktText(mo::RecordGenerator(polys), 300);
  vol->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(textR));

  mo::SynthSpec lines = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 62);
  lines.space.world = polys.space.world;
  const std::string textS = mo::generateWktText(mo::RecordGenerator(lines), 200);
  vol->create("s.wkt", std::make_shared<mp::MemoryBackingStore>(textS));

  // Reference: total area of R and total length of S.
  mc::WktParser parser;
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");
  double areaR = 0, lenS = 0;
  parser.parseAll(textR, [&](mg::Geometry&& g) { areaR += mg::area(g); });
  parser.parseAll(textS, [&](mg::Geometry&& g) { lenS += mg::length(g); });

  for (int nprocs : {1, 5}) {
    mc::OverlayStats stats;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 36;
      cfg.outputPath = "coverage.bin";
      mc::DatasetHandle r{"r.wkt", wkt};
      mc::DatasetHandle s{"s.wkt", wkt};
      const auto st = mc::gridCoverageOverlay(comm, *vol, r, &s, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        stats = st;
      }
    });
    // Clipped coverage sums to global measures, independent of rank count
    // (geometries may poke past the grid bounds by a sliver of floating
    // point, hence the tolerance).
    EXPECT_NEAR(stats.totalR, areaR, 1e-6 * areaR) << "nprocs=" << nprocs;
    EXPECT_NEAR(stats.totalS, lenS, 1e-6 * lenS) << "nprocs=" << nprocs;

    // The output file is row-major: re-read sequentially and re-derive the
    // per-cell coverage of cell 0..N-1 serially.
    auto obj = vol->lookup("coverage.bin");
    std::vector<mc::CellCoverage> fileCov(static_cast<std::size_t>(stats.grid.cellCount()));
    obj->data->read(0, reinterpret_cast<char*>(fileCov.data()),
                    fileCov.size() * sizeof(mc::CellCoverage));
    double fileR = 0, fileS = 0;
    for (const auto& c : fileCov) {
      fileR += c.measureR;
      fileS += c.measureS;
    }
    EXPECT_NEAR(fileR, stats.totalR, 1e-9 * std::max(1.0, stats.totalR));
    EXPECT_NEAR(fileS, stats.totalS, 1e-9 * std::max(1.0, stats.totalS));

    // Spot-check one cell against a serial recomputation.
    std::vector<mg::Geometry> allR;
    parser.parseAll(textR, [&](mg::Geometry&& g) { allR.push_back(std::move(g)); });
    const int probe = stats.grid.cellCount() / 2;
    double serial = 0;
    for (const auto& g : allR) serial += mg::clippedMeasure(g, stats.grid.cellEnvelope(probe));
    EXPECT_NEAR(fileCov[static_cast<std::size_t>(probe)].measureR, serial,
                1e-9 * std::max(1.0, serial));
  }
}

TEST(Overlay, SingleLayerAndEmptyCells) {
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  // A single tiny polygon in a big grid: almost all cells are zero.
  vol->create("one.wkt", std::make_shared<mp::MemoryBackingStore>(
                             std::string("POLYGON ((10 10, 11 10, 11 11, 10 11, 10 10))\n")));
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");
  mm::Runtime::run(3, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
    mc::OverlayConfig cfg;
    cfg.framework.gridCells = 64;
    cfg.outputPath = "one_coverage.bin";
    mc::DatasetHandle r{"one.wkt", wkt};
    const auto st = mc::gridCoverageOverlay(comm, *vol, r, nullptr, cfg);
    if (comm.rank() == 0) {
      EXPECT_NEAR(st.totalR, 1.0, 1e-9);
      EXPECT_EQ(st.totalS, 0.0);
    }
  });
}
