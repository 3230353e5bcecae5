// Durable-codec fuzz (DESIGN.md §11): every checkpoint artifact the
// recovery path trusts — batch shards, per-rank epoch manifests, base
// manifests, ingest manifests, and epoch seals — must reject *every*
// single-bit flip and *every* truncation of a well-formed blob: a
// corrupted artifact may never crash the reader and may never silently
// load. The trailing FNV-1a checksums make this exhaustive check cheap:
// each per-byte step of FNV-1a is a bijection on the 64-bit state, so a
// one-byte change always changes the checksum.
//
// Deliberately runtime-free (no simulated communicator): pure unit
// coverage that the ASan preset exercises on every CI run.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/format.hpp"
#include "core/partition_map.hpp"
#include "geom/batch_shard.hpp"
#include "geom/wkt.hpp"
#include "pfs/lustre.hpp"
#include "pfs/spill_store.hpp"
#include "recovery/checkpoint.hpp"
#include "util/error.hpp"

namespace mc = mvio::core;
namespace mg = mvio::geom;
namespace mp = mvio::pfs;
namespace mr = mvio::recovery;

namespace {

std::shared_ptr<mp::Volume> smallVolume() {
  mp::LustreParams params;
  params.nodes = 2;
  return std::make_shared<mp::Volume>(std::make_shared<mp::LustreModel>(params));
}

/// All seven OGC types with userData, so the shard payload exercises
/// every column and both arenas.
mg::GeometryBatch mixedBatch() {
  const char* wkts[] = {
      "POINT (3 3)",
      "LINESTRING (0 0, 10 10, 12 4)",
      "POLYGON ((1 1, 9 1, 9 9, 1 9, 1 1))",
      "MULTIPOINT ((1 1), (11 11), (-3 4))",
      "MULTILINESTRING ((0 0, 4 0), (6 6, 6 14, 14 14))",
      "MULTIPOLYGON (((0 0, 3 0, 3 3, 0 3, 0 0)), ((10 10, 14 10, 14 14, 10 14, 10 10)))",
      "GEOMETRYCOLLECTION (POINT (2 8), LINESTRING (8 2, 12 2), "
      "POLYGON ((4 4, 7 4, 7 7, 4 7, 4 4)))",
  };
  mg::GeometryBatch batch;
  int cell = 0;
  for (const char* w : wkts) {
    mg::Geometry g = mg::readWkt(w);
    g.userData = std::string("attr-") + std::to_string(cell);
    batch.append(g, cell);
    ++cell;
  }
  return batch;
}

/// Drive `tryLoad` with the pristine blob (must load), then with every
/// single-bit flip and every truncation (must all reject — return false
/// or throw util::Error, never crash, never load garbage).
void fuzzBlob(const std::string& good, const std::function<bool(const std::string&)>& tryLoad,
              const char* what) {
  ASSERT_TRUE(tryLoad(good)) << what << ": the pristine blob must load";
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::string mutated = good;
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << (i % 8)));
    EXPECT_FALSE(tryLoad(mutated)) << what << ": accepted a bit flip at byte " << i;
  }
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_FALSE(tryLoad(good.substr(0, len))) << what << ": accepted truncation to " << len
                                               << " of " << good.size() << " bytes";
  }
}

/// Wrap a thrower: rejection-by-util::Error counts as a clean reject.
bool noThrow(const std::function<void()>& body) {
  try {
    body();
    return true;
  } catch (const mvio::util::Error&) {
    return false;
  }
}

}  // namespace

TEST(CodecFuzz, BatchShardRejectsCorruption) {
  const mg::GeometryBatch batch = mixedBatch();
  std::string good;
  mg::encodeShard(batch, good);
  fuzzBlob(good,
           [&](const std::string& blob) {
             mg::GeometryBatch out;
             return noThrow([&] { mg::decodeShard(blob, out); }) && out.size() == batch.size();
           },
           "BatchShard");
}

TEST(CodecFuzz, EpochSealRejectsCorruption) {
  mr::EpochSeal seal;
  seal.epoch = 3;
  seal.roundsCompleted = 6;
  seal.worldSize = 2;
  seal.cellOwner = {0, 1, 0, 1, 0, 1, 0, 1};
  seal.cellLoads = {5, 0, 7, 1, 0, 0, 9, 2};
  seal.rankManifestChecksums = {0x1111111111111111ull, 0x2222222222222222ull};
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_seal";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep3.seal", std::string(blob));
             const auto got = mr::readEpochSeal(*volume, dir, 3);
             return got.has_value() && got->epoch == 3 && got->cellOwner == seal.cellOwner;
           },
           "EpochSeal");
}

namespace {

/// A small grouped (non-uniform) map: 4x4 grid split into quadrant-ish
/// partition cells via the quadtree builder on a skewed sample pile.
mc::PartitionMap groupedMap() {
  const mc::GridSpec grid(mg::Envelope(0, 0, 16, 16), 4, 4);
  mc::PartitionerConfig cfg;
  cfg.scheme = mc::PartitionScheme::kQuadtree;
  cfg.targetCells = 4;
  std::vector<mg::Envelope> samples;
  for (int i = 0; i < 200; ++i) {
    const double d = 0.01 * i;
    samples.emplace_back(1.0 + d, 1.0, 1.5 + d, 1.5);
  }
  samples.emplace_back(12.0, 12.0, 13.0, 13.0);
  return mc::buildPartitionMap(cfg, grid, samples, 2);
}

}  // namespace

TEST(CodecFuzz, PartitionMapRejectsCorruption) {
  const mc::PartitionMap map = groupedMap();
  ASSERT_FALSE(map.isUniform()) << "fixture must produce a grouped map";
  const std::string good = mc::encodePartitionMap(map);
  fuzzBlob(good,
           [&](const std::string& blob) {
             const auto got = mc::decodePartitionMap(blob);
             return got.has_value() && *got == map;
           },
           "PartitionMap");
  // The uniform map's (group-free) encoding must hold the same line.
  const mc::PartitionMap uni = mc::PartitionMap::uniform(map.grid());
  fuzzBlob(mc::encodePartitionMap(uni),
           [&](const std::string& blob) {
             const auto got = mc::decodePartitionMap(blob);
             return got.has_value() && *got == uni;
           },
           "PartitionMap(uniform)");
}

TEST(CodecFuzz, EpochSealWithPartitionMapRejectsCorruption) {
  // A v2 seal carrying an embedded adaptive map: corruption anywhere —
  // seal header, arrays, embedded map bytes, or checksums — must reject
  // the whole seal (the embedded map is re-validated by its own codec).
  const mc::PartitionMap map = groupedMap();
  mr::EpochSeal seal;
  seal.epoch = 5;
  seal.roundsCompleted = 10;
  seal.worldSize = 2;
  seal.cellOwner.assign(static_cast<std::size_t>(map.cellCount()), 0);
  seal.cellLoads.assign(static_cast<std::size_t>(map.cellCount()), 3);
  seal.rankManifestChecksums = {0xaaaaull, 0xbbbbull};
  seal.partitionMap = mc::encodePartitionMap(map);
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_seal_map";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep5.seal", std::string(blob));
             const auto got = mr::readEpochSeal(*volume, dir, 5);
             return got.has_value() && got->epoch == 5 && got->partitionMap == seal.partitionMap;
           },
           "EpochSeal(v2+map)");
}

TEST(CodecFuzz, RankManifestRejectsCorruption) {
  mr::RankEpochManifest manifest;
  manifest.epoch = 1;
  manifest.globalRound = 2;
  manifest.records[0] = 7;
  manifest.records[1] = 3;
  manifest.shards[0] = {{128, 0xabcdefull}, {64, 0x123456ull}};
  manifest.shards[1] = {{32, 0x777777ull}};
  const std::string good = mr::encodeRankManifest(manifest);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_manifest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ep1.manifest", std::string(blob));
             const auto got = mr::readRankManifest(*volume, dir, 0, 1);
             return got.has_value() && got->records[0] == 7 && got->shards[0].size() == 2;
           },
           "RankEpochManifest");
}

TEST(CodecFuzz, BaseManifestRejectsCorruption) {
  mr::BaseManifest base;
  base.baseEpoch = 2;
  base.roundsCovered = 4;
  base.records[0] = 21;
  base.records[1] = 9;
  base.shards[0] = {{256, 0xfeedull}};
  base.shards[1] = {{96, 0xbeefull}, {48, 0xcafeull}};
  const std::string good = mr::encodeBaseManifest(base);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_base";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("base.manifest", std::string(blob));
             const auto got = mr::readBaseManifest(*volume, dir, 0);
             return got.has_value() && got->baseEpoch == 2 && got->shards[1].size() == 2;
           },
           "BaseManifest");
}

TEST(CodecFuzz, IngestManifestRejectsCorruption) {
  // v2 layout: per layer, per chunk {bytes, checksum, ranges}. Layer R has
  // a two-range chunk (a kMessage fragment + prefix pair) and a one-range
  // chunk; layer S an empty chunk (a rank that read nothing that round).
  mr::IngestLog log;
  log.chunks[0] = {{300, 0x1234abcdull, {{4000, 120}, {4120, 180}}},
                   {64, 0x5678ull, {{9000, 64}}}};
  log.chunks[1] = {{0, 0x9abcull, {}}, {80, 0xdef0ull, {{7, 80}}}};
  const std::string good = mr::encodeIngestManifest(log);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_ingest";
  mp::SpillStore store(*volume, mr::rankPrefix(dir, 0));
  fuzzBlob(good,
           [&](const std::string& blob) {
             store.put("ing.manifest", std::string(blob));
             mr::IngestLog got;
             return noThrow([&] { got = mr::readIngestLog(*volume, dir, 0); }) &&
                    got.chunks[0] == log.chunks[0] && got.chunks[1] == log.chunks[1];
           },
           "IngestManifest");

  // A chunk whose range lengths do not add up to its byte count — more
  // or fewer bytes — is rejected even with a valid trailing checksum.
  for (const std::uint64_t bytes : {299u, 301u}) {
    mr::IngestLog uneven = log;
    uneven.chunks[0][0].bytes = bytes;
    store.put("ing.manifest", mr::encodeIngestManifest(uneven));
    EXPECT_THROW((void)mr::readIngestLog(*volume, dir, 0), mvio::util::Error) << bytes;
  }
}

TEST(CodecFuzz, TornSealTailsAlwaysReject) {
  // The exact failure mode tearEpochSeal injects: a seal prefix of any
  // length — including zero — must never validate.
  mr::EpochSeal seal;
  seal.epoch = 2;
  seal.roundsCompleted = 4;
  seal.worldSize = 1;
  seal.cellOwner = {0, 0, 0, 0};
  seal.cellLoads = {1, 2, 3, 4};
  seal.rankManifestChecksums = {0x42ull};
  const std::string good = mr::encodeEpochSeal(seal);

  auto volume = smallVolume();
  const std::string dir = "__fuzz_torn";
  mp::SpillStore store(*volume, mr::globalPrefix(dir));
  for (std::size_t len = 0; len < good.size(); ++len) {
    store.put("ep2.seal", good.substr(0, len));
    EXPECT_FALSE(mr::readEpochSeal(*volume, dir, 2).has_value())
        << "a torn ep2.seal of " << len << " bytes validated";
    // And the full scan must agree the epoch is unusable.
    EXPECT_FALSE(mr::findLastSealedEpoch(*volume, dir, 1, 2).has_value());
  }
}

// ---- WKB record stream (core/format.hpp framing) --------------------------
//
// Unlike the checkpoint artifacts above, the ingest record stream carries
// no checksum — raw WKB straight off a file. The guarantee is therefore
// not reject-everything but *containment*: the reader must never throw,
// never over-read, account for every byte, and never turn a damaged
// stream into more records than the writer framed.

namespace {

struct FramedBlob {
  std::string bytes;
  std::vector<std::size_t> bounds;  // 0 and one past each record
};

FramedBlob framedMixedBlob() {
  const mg::GeometryBatch batch = mixedBatch();
  FramedBlob blob;
  blob.bounds.push_back(0);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    mc::appendWkbRecord(batch, i, blob.bytes);
    blob.bounds.push_back(blob.bytes.size());
  }
  return blob;
}

}  // namespace

TEST(CodecFuzz, WkbRecordStreamTruncationsAccountEveryRecord) {
  const FramedBlob blob = framedMixedBlob();
  const mc::WkbFormatReader fmt;
  for (std::size_t len = 0; len <= blob.bytes.size(); ++len) {
    std::size_t whole = 0;
    while (whole + 1 < blob.bounds.size() && blob.bounds[whole + 1] <= len) ++whole;
    const bool onBoundary =
        std::find(blob.bounds.begin(), blob.bounds.end(), len) != blob.bounds.end();
    mg::GeometryBatch out;
    mc::ParseStats st;
    EXPECT_TRUE(noThrow([&] {
      st = fmt.parseChunk(std::string_view(blob.bytes).substr(0, len), out, nullptr, nullptr);
    })) << "truncation to " << len << " bytes threw";
    EXPECT_EQ(st.records, whole) << "len=" << len;
    EXPECT_EQ(out.size(), whole) << "len=" << len;
    EXPECT_EQ(st.badRecords, onBoundary ? 0u : 1u) << "len=" << len;
    EXPECT_EQ(st.bytes, len);
  }
}

TEST(CodecFuzz, WkbRecordStreamBitFlipsNeverCrashOrInventRecords) {
  const FramedBlob blob = framedMixedBlob();
  const mc::WkbFormatReader fmt;
  const std::size_t framed = blob.bounds.size() - 1;
  for (std::size_t i = 0; i < blob.bytes.size(); ++i) {
    std::string mutated = blob.bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ (1u << (i % 8)));
    mg::GeometryBatch out;
    mc::ParseStats st;
    EXPECT_TRUE(noThrow(
        [&] { st = fmt.parseChunk(mutated, out, nullptr, nullptr); }))
        << "bit flip at byte " << i << " threw";
    EXPECT_EQ(st.bytes, mutated.size()) << "flip at byte " << i;
    EXPECT_LE(st.records, framed) << "flip at byte " << i << " invented records";
    if (st.records < framed) {
      EXPECT_GE(st.badRecords, 1u)
          << "flip at byte " << i << " silently dropped a record";
    }
  }
}
