// Format-registry + binary ingest coverage (DESIGN.md §12): registry
// dispatch, length-prefixed WKB record framing, boundary resolution at
// adversarial chunk cuts (header straddling a block edge, empty and
// truncated tail records); per format (wkt, csv, wkb and a ';'-delimited
// user Parser) the record-aligned slicer, the parallel parse driver and
// partitioned reads under both strategies, Level-1 stripe-window reads
// against Level 0 — and the headline property of
// the binary fast path: WKT ingest and WKB ingest produce bit-identical
// join / overlay / index results at every thread count, one-shot and
// streamed, under both boundary strategies, including an injected
// failure that replays a WKB-fed chunk log.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/format.hpp"
#include "core/indexing.hpp"
#include "core/overlay.hpp"
#include "core/spatial_join.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkb.hpp"
#include "geom/wkt.hpp"
#include "io/file.hpp"
#include "osm/datasets.hpp"
#include "pfs/lustre.hpp"
#include "util/bytes.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mi = mvio::io;
namespace mm = mvio::mpi;
namespace mp = mvio::pfs;
namespace mo = mvio::osm;
namespace mu = mvio::util;

namespace {

constexpr std::uint64_t kMaxRec = 11ull << 20;  // PartitionConfig default

std::shared_ptr<mp::Volume> lustreVolume(int nodes = 8) {
  mp::LustreParams params;
  params.nodes = nodes;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

/// Read a whole volume file into a string (for bit-identity assertions).
std::string fileBytes(mp::Volume& volume, const std::string& name) {
  const auto file = volume.lookup(name);
  std::string bytes(file->data->size(), '\0');
  file->data->read(0, bytes.data(), bytes.size());
  return bytes;
}

/// A corpus in one format, the exact record-boundary offsets (0 and one
/// past each record, the last being the stream size) and, for the WKB
/// corpus, the batch it should decode to.
struct FramedCorpus {
  std::string bytes;
  std::vector<std::uint64_t> bounds;
  mg::GeometryBatch batch;
};

/// The documented extension point with a non-newline delimiter: a user
/// Parser whose records end at ';', wrapped in a TextFormatReader.
class SemicolonWktParser final : public mc::Parser {
 public:
  [[nodiscard]] bool parseRecord(std::string_view record, mg::Geometry& out) const override {
    return wkt_.parseRecord(record, out);
  }
  [[nodiscard]] bool parseRecordInto(std::string_view record, mg::GeometryBatch& out) const override {
    return wkt_.parseRecordInto(record, out);
  }
  [[nodiscard]] char delimiter() const override { return ';'; }

 private:
  mc::WktParser wkt_;
};
const SemicolonWktParser kSemicolonParser;
const mc::TextFormatReader kSemicolonReader(&kSemicolonParser, "semicolon");

/// One format under test.
struct FormatCase {
  const char* name;
  const mc::FormatReader* reader;
};

std::vector<FormatCase> formatCases() {
  mc::FormatRegistry& reg = mc::FormatRegistry::instance();
  return {{"wkt", reg.get("wkt")},
          {"csv", reg.get("csv")},
          {"wkb", reg.get("wkb")},
          {"semicolon", &kSemicolonReader}};
}

std::string caseName(const ::testing::TestParamInfo<FormatCase>& info) { return info.param.name; }
void PrintTo(const FormatCase& c, std::ostream* os) { *os << c.name; }

/// Records as {WKT, attributes}; attributes hold no tab, newline or ';'.
using Recs = std::vector<std::pair<std::string, std::string>>;

/// `recs` written in `fmt`, plus the record boundaries (0 and one past
/// each record). CSV carries each geometry as its envelope's min corner.
/// With `terminateLast` false a text format leaves the last record
/// EOF-terminated (framed WKB records need no terminator).
FramedCorpus encode(const FormatCase& fmt, const Recs& recs, bool terminateLast = true) {
  const std::string_view name = fmt.name;
  FramedCorpus c;
  c.bounds.push_back(0);
  for (const auto& [wkt, attrs] : recs) {
    const mg::Geometry g = mg::readWkt(wkt);
    if (name == "wkb") {
      mc::appendWkbRecord(g, attrs, c.bytes);
    } else if (name == "csv") {
      c.bytes += std::to_string(g.envelope().minX()) + "," + std::to_string(g.envelope().minY()) +
                 "," + attrs;
    } else {
      c.bytes += wkt + "\t" + attrs;
    }
    if (name != "wkb" && (terminateLast || c.bounds.size() < recs.size())) {
      c.bytes += name == "semicolon" ? ';' : '\n';
    }
    c.bounds.push_back(c.bytes.size());
  }
  return c;
}

/// Records of all seven OGC types with varied attribute lengths.
Recs mixedRecs() {
  return {{"POINT (1 2)", "a"},
          {"LINESTRING (0 0, 9 9)", "bb"},
          {"POLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))", "ccc"},
          {"MULTIPOINT ((1 1), (11 11), (-3 4))", "d"},
          {"MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))", "eeeeeeee"},
          {"MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))", "f"},
          {"POINT (3 4)", "g"},
          {"POINT (5 6)", "hh"},
          {"POINT (7 8)", "i"},
          {"GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
           "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
           "j"}};
}

/// mixedRecs() as a framed WKB stream, with the batch it decodes to.
FramedCorpus mixedCorpus() {
  FramedCorpus c = encode({"wkb", mc::FormatRegistry::instance().get("wkb")}, mixedRecs());
  for (const auto& [wkt, attrs] : mixedRecs()) {
    mg::Geometry g = mg::readWkt(wkt);
    g.userData = attrs;
    c.batch.append(g, 0);
  }
  return c;
}

std::string shardBytes(const mg::GeometryBatch& b) {
  std::string out;
  mg::encodeShard(b, out);
  return out;
}

}  // namespace

// ---- Registry dispatch ----------------------------------------------------

TEST(FormatRegistry, BuiltinsAndDispatch) {
  mc::FormatRegistry& reg = mc::FormatRegistry::instance();
  const std::vector<std::string> names = reg.names();
  for (const char* expected : {"csv", "wkb", "wkt"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << "missing builtin format " << expected;
  }

  EXPECT_EQ(reg.get("wkt")->name(), "wkt");
  EXPECT_EQ(reg.get("wkb")->name(), "wkb");

  EXPECT_EQ(reg.find("no-such-format"), nullptr);
  EXPECT_THROW((void)reg.get("no-such-format"), mu::Error);
}

TEST(FormatRegistry, TextReaderMatchesParserBehavior) {
  // The registry's "wkt" entry must parse exactly like a bare WktParser —
  // the behavior-preserving default every existing pipeline rides on.
  const std::string text =
      "POINT (1 2)\tattr-a\nnot a geometry\nPOLYGON ((0 0, 4 0, 4 4, 0 4, 0 0))\n";
  const mc::WktParser parser;
  mg::GeometryBatch direct;
  const mc::ParseStats base = parser.parseAll(text, direct);

  mg::GeometryBatch viaFormat;
  const mc::ParseStats got =
      mc::FormatRegistry::instance().get("wkt")->parseChunk(text, viaFormat, nullptr);
  EXPECT_EQ(got.records, base.records);
  EXPECT_EQ(got.badRecords, base.badRecords);
  EXPECT_EQ(got.bytes, base.bytes);
  EXPECT_EQ(shardBytes(viaFormat), shardBytes(direct));
}

// ---- Framed encode/decode round trip --------------------------------------

TEST(WkbFormat, RoundTripDecodesToIdenticalArenas) {
  const FramedCorpus c = mixedCorpus();
  const std::string want = shardBytes(c.batch);

  const mc::WkbFormatReader columnar(true);
  mg::GeometryBatch got;
  const mc::ParseStats ps = columnar.parseChunk(c.bytes, got, nullptr, nullptr);
  EXPECT_EQ(ps.records, c.batch.size());
  EXPECT_EQ(ps.badRecords, 0u);
  EXPECT_EQ(ps.bytes, c.bytes.size());
  EXPECT_EQ(shardBytes(got), want) << "zero-parse columnar decode must rebuild the exact arenas";

  // The materialized reference path (per-record Geometry) must agree with
  // the columnar fast path bit for bit.
  const mc::WkbFormatReader materialized(false);
  mg::GeometryBatch ref;
  const mc::ParseStats rs = materialized.parseChunk(c.bytes, ref, nullptr, nullptr);
  EXPECT_EQ(rs.records, ps.records);
  EXPECT_EQ(shardBytes(ref), want);

  // Batch-sourced framing writes the same stream as the Geometry overload.
  std::string reframed;
  for (std::size_t i = 0; i < c.batch.size(); ++i) mc::appendWkbRecord(c.batch, i, reframed);
  EXPECT_EQ(reframed, c.bytes);
}

// ---- Boundary resolution at adversarial cuts ------------------------------

TEST(WkbFormat, SplitBoundaryAtEveryPrefixLength) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  // Every possible raw block cut — including cuts straddling a record
  // header — must resolve to the largest true boundary inside the block.
  for (std::uint64_t cut = 0; cut <= c.bytes.size(); ++cut) {
    std::int64_t want = -1;  // a block too short to verify a magic has no boundary
    if (cut >= 4) {
      want = 0;
      for (const std::uint64_t b : c.bounds) {
        if (b <= cut) want = static_cast<std::int64_t>(b);
      }
    }
    const std::int64_t got = fmt.splitBoundary(std::string_view(c.bytes).substr(0, cut), kMaxRec);
    ASSERT_EQ(got, want) << "block cut at byte " << cut;
  }
  // A block smaller than its one record reports "no boundary" (-1) when it
  // starts mid-record, exactly like a delimiter-free text block.
  const std::string_view midRecord = std::string_view(c.bytes).substr(3, 8);
  EXPECT_EQ(fmt.splitBoundary(midRecord, kMaxRec), -1);
  // So does a block lying wholly inside the final record.
  const std::string_view tail = std::string_view(c.bytes).substr(c.bounds[c.bounds.size() - 2] + 1);
  EXPECT_EQ(fmt.splitBoundary(tail, kMaxRec), -1);
}

TEST(WkbFormat, BlocksStartingMidRecordResolveTheirFirstBoundary) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  // Stop before the last record: a block wholly inside it holds no record
  // start, so it resolves no boundary at all (checked below).
  for (std::size_t k = 1; k + 2 < c.bounds.size(); ++k) {
    // Cut into the middle of record k's header and payload; the remainder
    // of the stream must still split at its true boundaries.
    for (const std::uint64_t off : {c.bounds[k] + 1, c.bounds[k] + 5, c.bounds[k] + 13}) {
      const std::string_view block = std::string_view(c.bytes).substr(off);
      const std::int64_t got = fmt.splitBoundary(block, kMaxRec);
      ASSERT_EQ(got, static_cast<std::int64_t>(c.bytes.size() - off)) << "offset " << off;
      const std::uint64_t first = fmt.firstBoundary(block, 0, kMaxRec);
      ASSERT_EQ(first, c.bounds[k + 1] - off) << "offset " << off;
    }
  }
}

TEST(WkbFormat, NextBoundaryWalksHeadersAndDetectsTruncation) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;
  for (std::uint64_t from = 0; from <= c.bytes.size(); ++from) {
    const auto it = std::lower_bound(c.bounds.begin(), c.bounds.end(), from);
    ASSERT_NE(it, c.bounds.end());
    EXPECT_EQ(fmt.nextBoundary(c.bytes, 0, from, kMaxRec), *it) << "from=" << from;
  }
  // A window cut inside the final record: the record leaves the window, so
  // there is no boundary past its start — the kOverlap halo check fires.
  const std::string_view shortWindow = std::string_view(c.bytes).substr(0, c.bytes.size() - 3);
  EXPECT_EQ(fmt.nextBoundary(shortWindow, 0, shortWindow.size(), kMaxRec), mc::FormatReader::npos);
}

TEST(WkbFormat, RejectsEmptyTruncatedAndGarbageRecords) {
  const FramedCorpus c = mixedCorpus();
  const mc::WkbFormatReader fmt;

  // Empty record (wkbLen = 0): a frame with no payload must be rejected.
  std::string empty;
  mu::putScalar<std::uint32_t>(empty, mc::kWkbRecordMagic);
  mu::putScalar<std::uint32_t>(empty, 0);
  mu::putScalar<std::uint32_t>(empty, 0);
  mg::GeometryBatch out;
  mc::ParseStats ps = fmt.parseChunk(empty, out, nullptr, nullptr);
  EXPECT_EQ(ps.records, 0u);
  EXPECT_GE(ps.badRecords, 1u);

  // Truncations: records fully before the cut decode; a cut mid-record
  // counts exactly one bad tail, a cut on a boundary counts none.
  for (std::size_t k = 0; k + 1 < c.bounds.size(); ++k) {
    for (const std::uint64_t cut :
         {c.bounds[k], c.bounds[k] + 5, c.bounds[k] + 12, c.bounds[k] + 20}) {
      if (cut > c.bytes.size()) continue;
      const bool onBoundary =
          std::find(c.bounds.begin(), c.bounds.end(), cut) != c.bounds.end();
      mg::GeometryBatch b;
      const mc::ParseStats st = fmt.parseChunk(std::string_view(c.bytes).substr(0, cut), b, nullptr, nullptr);
      std::size_t whole = 0;
      while (whole + 1 < c.bounds.size() && c.bounds[whole + 1] <= cut) ++whole;
      EXPECT_EQ(st.records, whole) << "cut=" << cut;
      EXPECT_EQ(st.badRecords, onBoundary ? 0u : 1u) << "cut=" << cut;
    }
  }

  // Garbage between two intact frames: the reader must resynchronize on
  // the next magic and keep decoding.
  std::string mixed = c.bytes.substr(0, c.bounds[1]);
  mixed += "\x07garbage-not-a-frame";
  mixed += c.bytes.substr(c.bounds[1], c.bounds[2] - c.bounds[1]);
  mg::GeometryBatch b;
  ps = fmt.parseChunk(mixed, b, nullptr, nullptr);
  EXPECT_EQ(ps.records, 2u) << "both intact frames must survive the garbage between them";
  EXPECT_GE(ps.badRecords, 1u);
}

// ---- One record-boundary path, every format --------------------------------

namespace {

/// Every slice must tile the text exactly and start at a record boundary.
void expectValidSlicing(const FramedCorpus& c, const std::vector<std::string_view>& parts) {
  std::string joined;
  std::size_t offset = 0;
  for (const std::string_view part : parts) {
    if (!part.empty()) {
      const auto at = static_cast<std::size_t>(part.data() - c.bytes.data());
      EXPECT_EQ(at, offset) << "slices must be contiguous";
      EXPECT_TRUE(std::binary_search(c.bounds.begin(), c.bounds.end(), at))
          << "a slice must start on a record boundary, not at byte " << at;
      offset = at + part.size();
    }
    joined.append(part);
  }
  EXPECT_EQ(joined, c.bytes) << "concatenated slices must reproduce the text byte for byte";
}

/// Parse-driver input: records of every type, enough bulk records for
/// every thread count, and bad records for the bad-record attribution
/// (text formats: also a blank record, a CR before the terminator and no
/// final terminator; WKB: a garbage run the decoder resyncs past).
std::string parseTortureText(const FormatCase& fmt) {
  Recs recs = mixedRecs();
  for (int i = 0; i < 40; ++i) {
    recs.emplace_back("POINT (" + std::to_string(i) + " " + std::to_string(2 * i) + ")",
                      "bulk-" + std::to_string(i));
  }
  if (std::string_view(fmt.name) == "wkb") {
    mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 77);
    spec.space.world = mg::Envelope(0, 0, 20, 20);
    return mo::generateWkbText(mo::RecordGenerator(spec), 600) + "\x07garbage-not-a-frame" +
           encode(fmt, recs).bytes;
  }
  const std::string d(1, std::string_view(fmt.name) == "semicolon" ? ';' : '\n');
  return encode(fmt, Recs(recs.begin(), recs.begin() + 3)).bytes + "not-a-geometry at all" + d +
         d + encode(fmt, {{"POINT (9 9)", "crlf\r"}}).bytes + "POINT (brokenness" + d +
         encode(fmt, Recs(recs.begin() + 3, recs.end()), /*terminateLast=*/false).bytes;
}

class FormatSlicer : public ::testing::TestWithParam<FormatCase> {};
class FormatParseChunk : public ::testing::TestWithParam<FormatCase> {};
class FormatBoundaries : public ::testing::TestWithParam<FormatCase> {};

}  // namespace

TEST_P(FormatSlicer, TilesAtRecordBoundaries) {
  const FormatCase& fmt = GetParam();
  const FramedCorpus c = encode(fmt, mixedRecs());
  for (const int slices : {1, 2, 3, 4, 7, 16}) {
    const auto parts = fmt.reader->slice(c.bytes, slices);
    ASSERT_EQ(static_cast<int>(parts.size()), slices);
    expectValidSlicing(c, parts);
  }
}

TEST_P(FormatSlicer, RecordStraddlingTheRawCutStaysWhole) {
  // One long record dominates the middle: every naive byte cut lands
  // inside it, so the slicer must push the cut past its end and the
  // record must end up whole in exactly one slice.
  const FormatCase& fmt = GetParam();
  const std::string big(600, 'x');
  const FramedCorpus c =
      encode(fmt, {{"POINT (1 1)", "small"}, {"POINT (5 5)", big}, {"POINT (2 2)", "small"}});
  for (const int slices : {2, 3, 8}) {
    const auto parts = fmt.reader->slice(c.bytes, slices);
    expectValidSlicing(c, parts);
    int holders = 0;
    for (const std::string_view part : parts) {
      if (part.find(big) != std::string_view::npos) holders += 1;
    }
    EXPECT_EQ(holders, 1) << "the straddling record must live whole in one slice";
  }
}

TEST_P(FormatSlicer, ShortTextsLeaveTrailingSlicesEmpty) {
  const FormatCase& fmt = GetParam();
  const FramedCorpus one = encode(fmt, {{"POINT (1 2)", "a"}});
  const auto parts = fmt.reader->slice(one.bytes, 8);
  ASSERT_EQ(parts.size(), 8u);
  EXPECT_EQ(parts[0], one.bytes);
  for (std::size_t k = 1; k < parts.size(); ++k) EXPECT_TRUE(parts[k].empty());
  // No final terminator: the last record still lands in one slice.
  const FramedCorpus open = encode(fmt, {{"POINT (1 2)", "a"}, {"POINT (3 4)", "b"}}, false);
  expectValidSlicing(open, fmt.reader->slice(open.bytes, 4));
}

TEST_P(FormatParseChunk, ByteIdenticalToSerialAtEveryThreadCount) {
  const FormatCase& fmt = GetParam();
  const std::string text = parseTortureText(fmt);

  mg::GeometryBatch serial;
  const mc::ParseStats base = fmt.reader->parseChunk(text, serial, nullptr);
  ASSERT_GT(base.records, 0u);
  ASSERT_GT(base.badRecords, 0u) << "the torture text must exercise bad-record attribution";
  const std::string want = shardBytes(serial);

  for (const int threads : {1, 2, 4, 8}) {
    mu::ThreadPool pool(threads);
    mg::GeometryBatch out;
    mc::ParseTiming timing;
    const mc::ParseStats ps = fmt.reader->parseChunk(text, out, &pool, &timing);
    EXPECT_EQ(ps.records, base.records) << "threads=" << threads;
    EXPECT_EQ(ps.badRecords, base.badRecords)
        << "bad records must be attributed identically at threads=" << threads;
    EXPECT_EQ(ps.bytes, base.bytes) << "threads=" << threads;
    EXPECT_EQ(shardBytes(out), want) << "parallel parse must splice a byte-identical batch, threads="
                                     << threads;
    EXPECT_GE(timing.cpuSum + 1e-12, timing.critical);
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FormatSlicer, ::testing::ValuesIn(formatCases()), caseName);
INSTANTIATE_TEST_SUITE_P(Formats, FormatParseChunk, ::testing::ValuesIn(formatCases()), caseName);

// ---- PartitionReader: framed boundary resolution under MPI ----------------

namespace {

/// Partition r.wkb across 4 ranks under `strategy` (and optional streaming
/// chunks), decode every rank's text, and check the global outcome: every
/// record decodes exactly once.
void runPartitionedDecode(mc::BoundaryStrategy strategy, std::uint64_t chunkBytes,
                          std::uint64_t records, bool smallRecords = false) {
  auto volume = lustreVolume();
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  if (smallRecords) {
    // Algorithm 1 requires every chunk to fit the largest record; cap the
    // rings so tiny chunks stay legal while still straddling most headers.
    spec.maxVertices = 12;
    spec.holeProbability = 0;
  }
  volume->create("r.wkb", std::make_shared<mp::MemoryBackingStore>(
                              mo::generateWkbText(mo::RecordGenerator(spec), records)));

  const mc::FormatReader* fmt = mc::FormatRegistry::instance().get("wkb");
  std::mutex mtx;
  std::uint64_t totalRecords = 0, totalBad = 0;
  std::vector<std::string> allAttrs;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::PartitionConfig cfg;
    cfg.strategy = strategy;
    mi::File file = mi::File::open(comm, *volume, "r.wkb");
    mc::PartitionReader reader(comm, file, cfg, chunkBytes, fmt);
    std::string text;
    mg::GeometryBatch local;
    mc::ParseStats stats;
    while (reader.next(text)) {
      const mc::ParseStats ps = fmt->parseChunk(text, local, nullptr);
      stats.records += ps.records;
      stats.badRecords += ps.badRecords;
    }
    std::lock_guard<std::mutex> lock(mtx);
    totalRecords += stats.records;
    totalBad += stats.badRecords;
    for (std::size_t i = 0; i < local.size(); ++i) allAttrs.emplace_back(local.userData(i));
  });

  EXPECT_EQ(totalRecords, records);
  EXPECT_EQ(totalBad, 0u) << "framed partitioning must never hand a parser a torn record";
  std::sort(allAttrs.begin(), allAttrs.end());
  EXPECT_EQ(std::unique(allAttrs.begin(), allAttrs.end()), allAttrs.end())
      << "no record may be decoded twice";
}

}  // namespace

TEST(FramedPartitioning, MessageStrategyOneShotAndStreamed) {
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 0, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 4 << 10, 900);
  // Tiny chunks force record headers to straddle nearly every block edge.
  runPartitionedDecode(mc::BoundaryStrategy::kMessage, 640, 300, /*smallRecords=*/true);
}

TEST(FramedPartitioning, OverlapStrategyOneShotAndStreamed) {
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 0, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 4 << 10, 900);
  runPartitionedDecode(mc::BoundaryStrategy::kOverlap, 640, 300, /*smallRecords=*/true);
}

// ---- PartitionReader::lastRanges: the chunk log's replay source -----------

TEST(PartitionRanges, RangesReproduceEveryChunkAndTileTheFile) {
  // The chunk log replays a chunk by re-reading lastRanges() from the
  // input, so the ranges must be exact: per chunk, the file bytes over
  // them concatenate to the returned text; over all ranks and chunks they
  // cover the file's records exactly once — no gap, no overlap.
  auto volume = lustreVolume();
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 73);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  spec.maxVertices = 12;  // every record fits the smallest block below
  spec.holeProbability = 0;
  const mo::RecordGenerator gen(spec);
  volume->create("p.wkt", std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(gen, 200)));
  volume->create("p.wkb", std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(gen, 200)));

  struct Mode {
    const char* name;
    std::uint64_t chunkBytes;  ///< 0 = one-shot
    std::uint64_t blockSize;   ///< one-shot block size (several iterations)
  };
  const Mode modes[] = {{"stream-1536", 1536, 0}, {"stream-5120", 5120, 0}, {"one-shot", 0, 2048}};
  for (const mc::BoundaryStrategy strategy :
       {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const char* format : {"wkt", "wkb"}) {
      for (const bool collective : {false, true}) {
        for (const Mode& mode : modes) {
          for (const int ranks : {1, 3, 4}) {
            const std::string path = std::string("p.") + format;
            SCOPED_TRACE(path +
                         (strategy == mc::BoundaryStrategy::kMessage ? " message " : " overlap ") +
                         (collective ? "L1 " : "L0 ") + mode.name + " ranks " +
                         std::to_string(ranks));
            const std::string file = fileBytes(*volume, path);
            const mc::FormatReader* fmt = mc::FormatRegistry::instance().get(format);
            std::mutex mtx;
            std::vector<mc::FileRange> all;
            std::uint64_t chunks = 0, mismatched = 0, multiRange = 0;
            mm::Runtime::run(ranks, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
              mc::PartitionConfig cfg;
              cfg.strategy = strategy;
              cfg.collectiveRead = collective;
              cfg.blockSize = mode.blockSize;
              cfg.maxGeometryBytes = 1536;
              mi::File in = mi::File::open(comm, *volume, path);
              mc::PartitionReader reader(comm, in, cfg, mode.chunkBytes, fmt);
              std::string text;
              while (reader.next(text)) {
                std::string again;
                for (const mc::FileRange& r : reader.lastRanges()) {
                  again.append(file, static_cast<std::size_t>(r.offset),
                               static_cast<std::size_t>(r.length));
                }
                std::lock_guard<std::mutex> lock(mtx);
                chunks += 1;
                if (again != text) mismatched += 1;
                if (reader.lastRanges().size() > 1) multiRange += 1;
                all.insert(all.end(), reader.lastRanges().begin(), reader.lastRanges().end());
              }
            });
            EXPECT_EQ(mismatched, 0u) << "of " << chunks << " chunks";
            if (mode.chunkBytes == 0 && ranks > 1) {
              EXPECT_GT(multiRange, 0u) << "one-shot over several iterations logs several ranges";
            }
            std::sort(all.begin(), all.end(), [](const mc::FileRange& a, const mc::FileRange& b) {
              return a.offset < b.offset;
            });
            std::uint64_t at = 0;
            for (const mc::FileRange& r : all) {
              EXPECT_GT(r.length, 0u);
              EXPECT_EQ(r.offset, at) << (r.offset < at ? "overlap" : "gap");
              at = r.offset + r.length;
            }
            EXPECT_EQ(at, file.size()) << "the ranges must reach the end of the file";
          }
        }
      }
    }
  }
}

// ---- Level-1 stripe windows: one collective read per window ---------------

namespace {

/// Input store that counts the read requests reaching it.
class CountingStore final : public mp::BackingStore {
 public:
  explicit CountingStore(std::string bytes) : inner_(std::move(bytes)) {}
  [[nodiscard]] std::uint64_t size() const override { return inner_.size(); }
  void read(std::uint64_t offset, char* dst, std::size_t n) const override {
    reads_ += 1;
    inner_.read(offset, dst, n);
  }
  [[nodiscard]] std::uint64_t reads() const { return reads_.load(); }

 private:
  mp::MemoryBackingStore inner_;
  mutable std::atomic<std::uint64_t> reads_{0};
};

/// One streamed chunk as a rank saw it: its text and lastRanges().
struct StreamedChunk {
  std::string text;
  std::vector<mc::FileRange> ranges;

  friend bool operator==(const StreamedChunk&, const StreamedChunk&) = default;
};

}  // namespace

TEST(PartitionWindow, Level1WindowsCutLevel0ChunksWithOneCollectivePerWindow) {
  // A streamed Level-1 reader reads a window of K iterations in one
  // two-phase collective and cuts each iteration's bytes out of it. On a
  // small-stripe volume a layer spans several windows and a partial last
  // one. Chunk by chunk, the texts and lastRanges() must equal the
  // Level-0 reader's, and the input store may see at most one request per
  // aggregator per window.
  constexpr std::uint64_t kChunk = 1536;
  const mp::StripeSettings stripe{8 << 10, 4};
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 83);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  spec.maxVertices = 12;  // every record fits one chunk
  spec.holeProbability = 0;
  const mo::RecordGenerator gen(spec);
  auto volume = lustreVolume();
  // 470 records leave every rank count and K below a partial last window.
  const std::map<std::string, std::shared_ptr<CountingStore>> inputs = {
      {"wkt", std::make_shared<CountingStore>(mo::generateWktText(gen, 470))},
      {"wkb", std::make_shared<CountingStore>(mo::generateWkbText(gen, 470))}};
  for (const auto& [format, store] : inputs) volume->create("w." + format, store, stripe);
  // One rank per node, so the aggregator count grows with the ranks.
  mvio::sim::MachineModel machine = mvio::sim::MachineModel::comet(8);
  machine.ranksPerNode = 1;

  for (const mc::BoundaryStrategy strategy :
       {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const auto& [format, store] : inputs) {
      for (const int ranks : {1, 3, 4}) {
        for (const std::uint64_t budget : {std::uint64_t{0}, 2 * kChunk}) {
          SCOPED_TRACE(format + (strategy == mc::BoundaryStrategy::kMessage ? " message" : " overlap") +
                       " ranks " + std::to_string(ranks) + " budget " + std::to_string(budget));
          std::uint64_t iterations = 0, window = 0, aggregators = 0;
          const auto readAll = [&](bool collective) {
            std::mutex mtx;
            std::map<int, std::vector<StreamedChunk>> chunks;
            mm::Runtime::run(ranks, machine, [&](mm::Comm& comm) {
              mc::PartitionConfig cfg;
              cfg.strategy = strategy;
              cfg.collectiveRead = collective;
              cfg.maxGeometryBytes = kChunk;
              mi::File in = mi::File::open(comm, *volume, "w." + format);
              mc::PartitionReader reader(comm, in, cfg, kChunk,
                                         mc::FormatRegistry::instance().get(format), budget);
              std::vector<StreamedChunk> mine;
              std::string text;
              while (reader.next(text)) mine.push_back({text, reader.lastRanges()});
              std::lock_guard<std::mutex> lock(mtx);
              chunks[comm.rank()] = std::move(mine);
              iterations = reader.chunkCount();
              aggregators = in.aggregatorRanks().size();
              // K: one stripe per aggregator per collective, within the budget.
              window = std::max<std::uint64_t>(
                  1, aggregators * stripe.stripeSize / (static_cast<std::uint64_t>(ranks) * kChunk));
              if (budget > 0) window = std::min(window, budget / kChunk);
            });
            return chunks;
          };
          const auto level0 = readAll(false);
          const std::uint64_t before = store->reads();
          const auto level1 = readAll(true);
          const std::uint64_t reads = store->reads() - before;

          EXPECT_EQ(level1, level0) << "windowed Level-1 chunks must equal Level-0 chunks";
          EXPECT_GT(window, 1u);
          EXPECT_GT(iterations, 2 * window) << "the layer must span several windows";
          EXPECT_NE(iterations % window, 0u) << "the last window must be partial";
          // Each window reads something, so at least one request per window.
          const std::uint64_t windows = (iterations + window - 1) / window;
          EXPECT_GE(reads, windows) << "K = " << window;
          EXPECT_LE(reads, windows * aggregators)
              << iterations << " iterations, K = " << window << ", " << aggregators << " aggregators";
        }
      }
    }
  }
}

// ---- Boundary property: every format x strategy x rank count x block ------

TEST_P(FormatBoundaries, PartitionedReadsReproduceTextAndParseEveryRecordOnce) {
  // The reader alone decides where a record ends, so a format's records
  // must come through partitioned reads intact whatever cuts the blocks:
  // each chunk's lastRanges() re-read reproduces its text, and over all
  // ranks and chunks every record parses exactly once, none torn.
  const FormatCase& fmt = GetParam();
  mo::SynthSpec spec = mo::datasetSpec(mo::DatasetId::kCemetery, 79);
  spec.space.world = mg::Envelope(0, 0, 20, 20);
  spec.maxVertices = 12;  // every record fits the smallest block below
  spec.holeProbability = 0;
  const mo::RecordGenerator gen(spec);
  Recs recs;
  std::vector<std::string> want;
  for (std::uint64_t i = 0; i < 200; ++i) {
    want.push_back("id=" + std::to_string(i));
    recs.emplace_back(mg::writeWkt(gen.geometry(i), spec.precision), want.back());
  }
  std::sort(want.begin(), want.end());
  const std::string file = encode(fmt, recs).bytes;
  auto volume = lustreVolume();
  volume->create("p", std::make_shared<mp::MemoryBackingStore>(file));

  struct Mode {
    std::uint64_t chunkBytes;  ///< 0 = one-shot
    std::uint64_t blockSize;   ///< one-shot block size (0 = equal split)
  };
  for (const mc::BoundaryStrategy strategy :
       {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
    for (const Mode mode : {Mode{0, 0}, Mode{0, 2048}, Mode{1536, 0}, Mode{5120, 0}}) {
      for (const int ranks : {1, 3, 4}) {
        SCOPED_TRACE(std::string(strategy == mc::BoundaryStrategy::kMessage ? "message" : "overlap") +
                     " chunk " + std::to_string(mode.chunkBytes) + " block " +
                     std::to_string(mode.blockSize) + " ranks " + std::to_string(ranks));
        std::mutex mtx;
        std::vector<std::string> got;
        std::uint64_t chunks = 0, mismatched = 0, bad = 0;
        mm::Runtime::run(ranks, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
          mc::PartitionConfig cfg;
          cfg.strategy = strategy;
          cfg.blockSize = mode.blockSize;
          cfg.maxGeometryBytes = 1536;
          mi::File in = mi::File::open(comm, *volume, "p");
          mc::PartitionReader reader(comm, in, cfg, mode.chunkBytes, fmt.reader);
          mu::ThreadPool pool(2);
          std::string text;
          while (reader.next(text)) {
            std::string again;
            for (const mc::FileRange& r : reader.lastRanges()) {
              again.append(file, static_cast<std::size_t>(r.offset), static_cast<std::size_t>(r.length));
            }
            mg::GeometryBatch batch;
            const mc::ParseStats ps = fmt.reader->parseChunk(text, batch, &pool);
            std::lock_guard<std::mutex> lock(mtx);
            chunks += 1;
            if (again != text) mismatched += 1;
            bad += ps.badRecords;
            for (std::size_t i = 0; i < batch.size(); ++i) got.emplace_back(batch.userData(i));
          }
        });
        EXPECT_EQ(mismatched, 0u) << "of " << chunks << " chunks";
        EXPECT_EQ(bad, 0u) << "a partitioned read must never hand the parser a torn record";
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << "every record must parse exactly once";
      }
    }
  }
}

TEST_P(FormatBoundaries, NextBoundaryFromAKnownBoundaryIsThatBoundary) {
  // "First boundary at offset >= from": when `from` is the known boundary
  // itself — offset 0 and the end of the stream included — every reader
  // must answer with it, not with the boundary after it.
  const FormatCase& fmt = GetParam();
  const FramedCorpus c = encode(fmt, mixedRecs());
  for (const std::uint64_t b : c.bounds) {
    EXPECT_EQ(fmt.reader->nextBoundary(c.bytes, b, b, 1536), b) << "b=" << b;
  }
}

INSTANTIATE_TEST_SUITE_P(Formats, FormatBoundaries, ::testing::ValuesIn(formatCases()), caseName);

// ---- End-to-end: WKT ingest ≡ WKB ingest ----------------------------------

namespace {

/// Both encodings of the same two seeded layers on one volume, striped
/// as `stripe` says.
struct FormatFixture {
  std::shared_ptr<mp::Volume> volume = lustreVolume();
  const mc::FormatReader* wkt = mc::FormatRegistry::instance().get("wkt");
  const mc::FormatReader* wkb = mc::FormatRegistry::instance().get("wkb");

  explicit FormatFixture(mp::StripeSettings stripe = {}) {
    mo::SynthSpec specR = mo::datasetSpec(mo::DatasetId::kCemetery, 71);
    specR.space.world = mg::Envelope(0, 0, 20, 20);
    const mo::RecordGenerator genR(specR);
    volume->create("r.wkt",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genR, 1200)), stripe);
    volume->create("r.wkb",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(genR, 1200)), stripe);
    mo::SynthSpec specS = mo::datasetSpec(mo::DatasetId::kRoadNetwork, 72);
    specS.space.world = specR.space.world;
    const mo::RecordGenerator genS(specS);
    volume->create("s.wkt",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWktText(genS, 700)), stripe);
    volume->create("s.wkb",
                   std::make_shared<mp::MemoryBackingStore>(mo::generateWkbText(genS, 700)), stripe);
  }

  [[nodiscard]] mc::DatasetHandle layer(char which, bool binary, mc::BoundaryStrategy strategy,
                                        bool collective = false) const {
    mc::DatasetHandle ds;
    ds.path = std::string(1, which) + (binary ? ".wkb" : ".wkt");
    ds.format = binary ? wkb : wkt;
    ds.partition.strategy = strategy;
    ds.partition.collectiveRead = collective;
    return ds;
  }
};

struct JoinSetup {
  bool binary = false;
  int threads = 1;
  bool streamed = false;
  mc::BoundaryStrategy strategy = mc::BoundaryStrategy::kMessage;
  bool collective = false;  ///< Level-1 reads
  std::function<void(mc::FrameworkConfig&)> tweak;
};

/// `setup` applied to a four-rank pipeline's framework config and layers.
mc::FrameworkConfig frameworkConfig(const JoinSetup& setup) {
  mc::FrameworkConfig fw;
  fw.gridCells = 36;
  fw.threadsPerRank = setup.threads;
  if (setup.streamed) {
    fw.stream.chunkBytes = 4 << 10;
    fw.stream.memoryBudget = 32 << 10;
  }
  if (setup.tweak) setup.tweak(fw);
  return fw;
}

std::vector<mc::JoinPair> runJoin(FormatFixture& fx, const JoinSetup& setup, int* died = nullptr) {
  std::vector<mc::JoinPair> pairs;
  std::mutex mtx;
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::JoinConfig cfg;
    cfg.framework = frameworkConfig(setup);
    const mc::DatasetHandle r = fx.layer('r', setup.binary, setup.strategy, setup.collective);
    const mc::DatasetHandle s = fx.layer('s', setup.binary, setup.strategy, setup.collective);
    std::vector<mc::JoinPair> local;
    const auto stats = mc::spatialJoin(comm, *fx.volume, r, s, cfg, &local);
    std::lock_guard<std::mutex> lock(mtx);
    pairs.insert(pairs.end(), local.begin(), local.end());
    if (stats.recovery.died && died != nullptr) *died += 1;
  });
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

/// The two-layer coverage overlay under `setup`; returns the raster bytes.
std::string runOverlay(FormatFixture& fx, const JoinSetup& setup, const std::string& out) {
  mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
    mc::OverlayConfig cfg;
    cfg.framework = frameworkConfig(setup);
    cfg.outputPath = out;
    const mc::DatasetHandle r = fx.layer('r', setup.binary, setup.strategy, setup.collective);
    const mc::DatasetHandle s = fx.layer('s', setup.binary, setup.strategy, setup.collective);
    (void)mc::gridCoverageOverlay(comm, *fx.volume, r, &s, cfg);
  });
  return fileBytes(*fx.volume, out);
}

}  // namespace

TEST(FormatIngest, DatasetWithoutFormatIsRejected) {
  // `format` is the one way a DatasetHandle names its reader: a handle
  // without one (either layer) must fail cleanly with util::Error on
  // every rank, before any read.
  FormatFixture fx;
  for (const char missing : {'r', 's'}) {
    SCOPED_TRACE(missing);
    EXPECT_THROW(mm::Runtime::run(4, mvio::sim::MachineModel::comet(8),
                                  [&](mm::Comm& comm) {
                                    mc::DatasetHandle r = fx.layer('r', false, {});
                                    mc::DatasetHandle s = fx.layer('s', false, {});
                                    (missing == 'r' ? r : s).format = nullptr;
                                    (void)mc::spatialJoin(comm, *fx.volume, r, s, {});
                                  }),
                 mu::Error);
  }
}

TEST(FormatBitIdentity, JoinPairsMatchAcrossFormatsThreadsAndStrategies) {
  FormatFixture fx;
  const std::vector<mc::JoinPair> base = runJoin(fx, {});
  ASSERT_FALSE(base.empty());

  for (const bool streamed : {false, true}) {
    for (const int threads : {1, 4}) {
      for (const auto strategy :
           {mc::BoundaryStrategy::kMessage, mc::BoundaryStrategy::kOverlap}) {
        JoinSetup setup;
        setup.binary = true;
        setup.threads = threads;
        setup.streamed = streamed;
        setup.strategy = strategy;
        EXPECT_EQ(runJoin(fx, setup), base)
            << "binary ingest diverged: streamed=" << streamed << " threads=" << threads
            << " strategy=" << (strategy == mc::BoundaryStrategy::kMessage ? "msg" : "overlap");
      }
    }
  }
}

TEST(FormatBitIdentity, OverlayRasterBytesMatchAcrossFormats) {
  FormatFixture fx;
  std::array<std::string, 2> rasters;
  rasters[0] = runOverlay(fx, {}, "cov_wkt.bin");
  // The binary run also exercises streaming + threads: the raster is a
  // pure function of the record multiset, so it must not budge.
  JoinSetup binary;
  binary.binary = true;
  binary.threads = 4;
  binary.streamed = true;
  rasters[1] = runOverlay(fx, binary, "cov_wkb.bin");
  ASSERT_FALSE(rasters[0].empty());
  EXPECT_EQ(rasters[0], rasters[1])
      << "WKB ingest must write a bit-identical coverage raster to WKT ingest";
}

TEST(FormatBitIdentity, IndexContentsMatchAcrossFormats) {
  FormatFixture fx;
  // Partition offsets differ between the encodings, so records arrive in a
  // different order — compare per-rank record counts plus the sorted
  // multiset of per-record content hashes (geometry WKB + userData), which
  // arrival order cannot disturb.
  std::array<std::map<int, std::vector<std::uint64_t>>, 2> perRank;
  for (int mode = 0; mode < 2; ++mode) {
    const bool binary = mode == 1;
    for (const int threads : {1, 4}) {
      std::mutex mtx;
      std::map<int, std::vector<std::uint64_t>> ranks;
      mm::Runtime::run(4, mvio::sim::MachineModel::comet(8), [&](mm::Comm& comm) {
        mc::IndexingConfig cfg;
        cfg.framework.gridCells = 36;
        cfg.framework.threadsPerRank = threads;
        const mc::DatasetHandle data = fx.layer('r', binary, mc::BoundaryStrategy::kMessage);
        const auto index = mc::buildDistributedIndex(comm, *fx.volume, data, cfg, nullptr);
        const mg::GeometryBatch& b = index.batch();
        std::vector<std::uint64_t> keys;
        keys.reserve(b.size());
        std::string scratch;
        for (std::size_t i = 0; i < b.size(); ++i) {
          scratch.clear();
          mg::appendWkb(b, i, scratch);
          keys.push_back(mu::fnv1a(scratch) * 1000003u ^ mu::fnv1a(b.userData(i)));
        }
        std::sort(keys.begin(), keys.end());
        std::lock_guard<std::mutex> lock(mtx);
        ranks[comm.rank()] = std::move(keys);
      });
      if (threads == 1) {
        perRank[static_cast<std::size_t>(mode)] = ranks;
      } else {
        EXPECT_EQ(ranks, perRank[static_cast<std::size_t>(mode)])
            << "thread count changed index contents, mode=" << mode;
      }
    }
  }
  EXPECT_EQ(perRank[0], perRank[1])
      << "every rank must index the same record multiset under both encodings";
}

TEST(FormatBitIdentity, InjectedFailureReplaysWkbChunkLog) {
  FormatFixture fx;
  const std::vector<mc::JoinPair> base = runJoin(fx, {});
  ASSERT_FALSE(base.empty());

  // Streamed binary ingest with checkpoints; rank 2 dies mid-stream. The
  // chunk log names input ranges, so replay re-reads the WKB file and
  // re-decodes it with the layer's reader — the survivors must
  // reconstruct exactly the failure-free (and WKT) result.
  JoinSetup setup;
  setup.binary = true;
  setup.threads = 4;
  setup.streamed = true;
  setup.tweak = [](mc::FrameworkConfig& fw) {
    fw.stream.checkpointEveryRounds = 2;
    fw.stream.checkpointDir = "__ck_format";
    fw.failSchedule = {{2, 3, 0}};
  };
  int died = 0;
  const std::vector<mc::JoinPair> recovered = runJoin(fx, setup, &died);
  EXPECT_EQ(died, 1);
  EXPECT_EQ(recovered, base)
      << "a failure replaying the WKB-fed chunk log must not change the join result";
}

TEST(WindowPipeline, Level1StreamedJoinAndOverlayMatchLevel0UnderKillThreadsAndBudget) {
  // Streamed Level-1 ingest reads stripe windows of iterations; nothing
  // downstream may notice. On 64 KiB stripes a 4 KiB-chunk layer spans
  // several windows (K = 4 on four ranks of one node). Under a kill,
  // under the worker pool with round overlap, and under a budget that
  // caps K at two chunks, the join pairs and overlay rasters of Level-1
  // runs must be bit-identical to the Level-0 streamed run and to the
  // failure-free run.
  FormatFixture fx({64 << 10, 4});
  for (const char* path : {"r.wkt", "s.wkt"}) {
    ASSERT_GT(fx.volume->lookup(path)->data->size(), 64u << 10) << path << " must span several windows";
  }
  JoinSetup streamed;
  streamed.streamed = true;
  const std::vector<mc::JoinPair> basePairs = runJoin(fx, streamed);
  const std::string baseRaster = runOverlay(fx, streamed, "win_base.bin");
  ASSERT_FALSE(basePairs.empty());
  ASSERT_FALSE(baseRaster.empty());

  struct Case {
    const char* name;
    int threads;
    std::function<void(mc::FrameworkConfig&)> tweak;
  };
  const std::vector<Case> cases = {
      {"plain", 1, nullptr},
      {"kill", 1,
       [](mc::FrameworkConfig& fw) {
         fw.stream.checkpointEveryRounds = 2;
         fw.failSchedule = {{2, 3, 0}};
       }},
      {"threads_overlap", 4, [](mc::FrameworkConfig& fw) { fw.stream.overlapRounds = true; }},
      {"budget_caps_window", 1, [](mc::FrameworkConfig& fw) { fw.stream.memoryBudget = 8 << 10; }},
  };
  for (const Case& c : cases) {
    for (const bool collective : {false, true}) {
      const std::string name = std::string(c.name) + (collective ? "_l1" : "_l0");
      SCOPED_TRACE(name);
      JoinSetup setup = streamed;
      setup.threads = c.threads;
      setup.collective = collective;
      setup.tweak = [&](mc::FrameworkConfig& fw) {
        fw.stream.checkpointDir = "__ck_win_" + name;
        if (c.tweak) c.tweak(fw);
      };
      int died = 0;
      EXPECT_EQ(runJoin(fx, setup, &died), basePairs);
      EXPECT_EQ(runOverlay(fx, setup, "win_" + name + ".bin"), baseRaster);
      EXPECT_EQ(died, std::string_view(c.name) == "kill" ? 1 : 0);
    }
  }
}
