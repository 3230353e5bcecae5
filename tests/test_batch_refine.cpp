// Batch-native refine layer tests: the in-place exact predicates
// (recordIntersectsBox / recordClippedMeasure) must agree with the
// Geometry-based predicates on materialized records, the batch-backed
// DistributedIndex must return exactly the legacy per-Geometry results,
// and the overlay CoverageTask must survive its port to the batch-span
// interface cell for cell.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>

#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "geom/clip.hpp"
#include "geom/geometry_batch.hpp"
#include "geom/rtree.hpp"
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

/// A batch covering all seven OGC types, plus degenerate shapes (hole
/// polygons, single-vertex lines) that exercise the traversal edge cases.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "POINT (0 0)",
      "LINESTRING (0 0, 10 10)",
      "LINESTRING (-5 5, 15 5, 15 12)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "POLYGON ((0 0, 20 0, 20 20, 0 20, 0 0), (5 5, 15 5, 15 15, 5 15, 5 5))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  for (const char* w : wkts) batch.append(mg::readWkt(w));

  // Random clustered polygons/lines for bulk coverage.
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kLakes, 77);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator gen(spec);
  for (std::uint64_t i = 0; i < 60; ++i) batch.append(gen.geometry(i));
  mo::SynthSpec lines = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 78);
  lines.space.world = mg::Envelope(0, 0, 20, 20);
  const mo::RecordGenerator lineGen(lines);
  for (std::uint64_t i = 0; i < 60; ++i) batch.append(lineGen.geometry(i));
  return batch;
}

std::vector<mg::Envelope> probeBoxes() {
  std::vector<mg::Envelope> boxes = {
      {2, 2, 6, 6},          // generic overlap
      {-100, -100, 100, 100},  // contains everything
      {6, 6, 14, 14},        // sits inside the hole of the donut polygon
      {3, 3, 3, 3},          // degenerate point-box
      {0, 0, 1e-9, 1e-9},    // corner touch
      {30, 30, 40, 40},      // disjoint
      {9, 1, 9, 9},          // degenerate edge-box on a polygon edge
  };
  mvio::util::Rng rng(123);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.uniform(-2, 18), y = rng.uniform(-2, 18);
    boxes.emplace_back(x, y, x + rng.uniform(0.01, 8), y + rng.uniform(0.01, 8));
  }
  return boxes;
}

}  // namespace

TEST(BatchRefine, IntersectsBoxMatchesMaterializedPredicate) {
  const mg::GeometryBatch batch = mixedBatch();
  for (const auto& box : probeBoxes()) {
    const mg::Geometry boxGeom = mg::Geometry::box(box);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(mg::recordIntersectsBox(batch, i, box),
                mg::intersects(boxGeom, batch.materialize(i)))
          << "record " << i << " box [" << box.minX() << "," << box.minY() << "," << box.maxX()
          << "," << box.maxY() << "]";
    }
  }
}

TEST(BatchRefine, ClippedMeasureMatchesMaterializedMeasure) {
  const mg::GeometryBatch batch = mixedBatch();
  for (const auto& box : probeBoxes()) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      // Identical arithmetic (shared span primitives), so exact equality.
      EXPECT_DOUBLE_EQ(mg::recordClippedMeasure(batch, i, box),
                       mg::clippedMeasure(batch.materialize(i), box))
          << "record " << i;
    }
  }
}

TEST(BatchRefine, RTreeBulkLoadFromSpanMatchesManualEntries) {
  const mg::GeometryBatch batch = mixedBatch();
  std::vector<std::uint32_t> idx(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) idx[i] = static_cast<std::uint32_t>(i);
  const mg::BatchSpan span(&batch, idx.data(), idx.size());

  mg::RTree fromSpan(8);
  fromSpan.bulkLoad(span);
  std::vector<mg::RTree::Entry> entries;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    entries.push_back({batch.envelope(i), static_cast<std::uint64_t>(i)});
  }
  mg::RTree manual(8);
  manual.bulkLoad(std::move(entries));

  ASSERT_EQ(fromSpan.size(), manual.size());
  for (const auto& box : probeBoxes()) {
    auto a = fromSpan.search(box);
    auto b = manual.search(box);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
  }
}

namespace {

/// The pre-refactor CellIndex: materialized geometries + an R-tree, with
/// the query loop the old DistributedIndex ran. Kept here as the reference
/// the batch-backed index must match record for record.
struct LegacyIndex {
  struct Cell {
    std::vector<mg::Geometry> geometries;
    std::vector<std::size_t> ids;  // original batch record ids
    mg::RTree rtree{16};
  };
  mc::GridSpec grid;
  std::map<int, Cell> cells;

  static LegacyIndex build(const mg::GeometryBatch& batch, const mc::GridSpec& grid) {
    LegacyIndex index;
    index.grid = grid;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.cell(i) == mg::GeometryBatch::kNoCell) continue;
      Cell& cell = index.cells[batch.cell(i)];
      cell.geometries.push_back(batch.materialize(i));
      cell.ids.push_back(i);
    }
    for (auto& [id, cell] : index.cells) {
      std::vector<mg::RTree::Entry> entries;
      for (std::size_t k = 0; k < cell.geometries.size(); ++k) {
        entries.push_back({cell.geometries[k].envelope(), static_cast<std::uint64_t>(k)});
      }
      cell.rtree.bulkLoad(std::move(entries));
    }
    return index;
  }

  [[nodiscard]] std::set<std::size_t> query(const mg::Envelope& box) const {
    std::set<std::size_t> out;
    const mg::Geometry boxGeom = mg::Geometry::box(box);
    for (const auto& [cellId, cell] : cells) {
      cell.rtree.query(box, [&](std::uint64_t k) {
        const mg::Geometry& g = cell.geometries[static_cast<std::size_t>(k)];
        const mg::Coord ref{std::max(g.envelope().minX(), box.minX()),
                            std::max(g.envelope().minY(), box.minY())};
        if (grid.cellOfPoint(ref) != cellId) return;
        if (!mg::intersects(boxGeom, g)) return;
        out.insert(cell.ids[static_cast<std::size_t>(k)]);
      });
    }
    return out;
  }
};

}  // namespace

TEST(BatchRefine, DistributedIndexMatchesLegacyPerGeometryIndex) {
  mg::GeometryBatch batch = mixedBatch();
  const mc::GridSpec grid(mg::Envelope(-5, -5, 25, 25), 6, 6);
  // Tag cells with replication, exactly like the framework's project step.
  {
    const std::size_t n = batch.size();
    std::vector<int> cells;
    for (std::size_t i = 0; i < n; ++i) {
      cells.clear();
      grid.overlappingCells(batch.envelope(i), cells);
      ASSERT_FALSE(cells.empty());
      batch.setCell(i, cells[0]);
      for (std::size_t k = 1; k < cells.size(); ++k) batch.appendRecordFrom(batch, i, cells[k]);
    }
  }

  const LegacyIndex legacy = LegacyIndex::build(batch, grid);
  const std::uint64_t total = batch.size();
  const auto index = mc::DistributedIndex::fromBatch(std::move(batch), grid);
  EXPECT_EQ(index.localGeometries(), total);
  EXPECT_EQ(index.batch().size(), total);

  for (const auto& box : probeBoxes()) {
    std::set<std::size_t> got;
    index.query(box, [&](std::size_t id) { got.insert(id); });
    EXPECT_EQ(got, legacy.query(box)) << "box [" << box.minX() << "," << box.minY() << ","
                                      << box.maxX() << "," << box.maxY() << "]";
    EXPECT_EQ(index.queryCount(box), got.size());
  }

  // Matched records materialize on demand from the adopted arenas.
  index.query(mg::Envelope(2, 2, 6, 6), [&](std::size_t id) {
    EXPECT_FALSE(index.materialize(id).isEmpty());
  });
}

TEST(BatchRefine, OverlayCoverageRegressionThroughBatchInterface) {
  // Overlay CoverageTask regression through the batch-span interface:
  // every cell of the row-major output must equal a serial per-Geometry
  // recomputation (not just the global sums).
  mp::LustreParams params;
  params.nodes = 4;
  auto vol = std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
  mo::SynthSpec polys = mo::datasetSpec(mo::DatasetId::kLakes, 91);
  polys.space.world = mg::Envelope(0, 0, 30, 30);
  polys.maxRadius = 1.5;
  const std::string textR = mo::generateWktText(mo::RecordGenerator(polys), 200);
  vol->create("r.wkt", std::make_shared<mp::MemoryBackingStore>(textR));

  mc::WktParser parser;
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");
  std::vector<mg::Geometry> all;
  parser.parseAll(textR, [&](mg::Geometry&& g) { all.push_back(std::move(g)); });

  for (int nprocs : {1, 4}) {
    mc::OverlayStats stats;
    std::mutex mu;
    mm::Runtime::run(nprocs, mvio::sim::MachineModel::comet(4), [&](mm::Comm& comm) {
      mc::OverlayConfig cfg;
      cfg.framework.gridCells = 25;
      cfg.outputPath = "batch_cov.bin";
      mc::DatasetHandle r{"r.wkt", wkt};
      const auto st = mc::gridCoverageOverlay(comm, *vol, r, nullptr, cfg);
      if (comm.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        stats = st;
      }
    });

    auto obj = vol->lookup("batch_cov.bin");
    std::vector<mc::CellCoverage> fileCov(static_cast<std::size_t>(stats.grid.cellCount()));
    obj->data->read(0, reinterpret_cast<char*>(fileCov.data()),
                    fileCov.size() * sizeof(mc::CellCoverage));
    for (int c = 0; c < stats.grid.cellCount(); ++c) {
      double serial = 0;
      for (const auto& g : all) serial += mg::clippedMeasure(g, stats.grid.cellEnvelope(c));
      // Identical per-record terms; only the accumulation order differs
      // (records arrive in exchange order), hence the ULP-scale tolerance.
      EXPECT_NEAR(fileCov[static_cast<std::size_t>(c)].measureR, serial,
                  1e-12 * std::max(1.0, serial))
          << "cell " << c << " nprocs " << nprocs;
    }
  }
}
