#pragma once
// Flexible parsing interface (paper §4.3 "Parsing module").
//
// MPI-Vector-IO presents file partitions and communication buffers as
// collections of delimiter-separated strings; a Parser turns each string
// into a GEOS-style geometry. The library ships parsers for WKT lines
// (optionally followed by tab-separated attributes, which land in
// Geometry::userData) and CSV point data (lon,lat[,attrs] — the New York
// Taxi style the paper cites). Users plug in their own Parser for other
// text formats (OSM XML, GeoJSON lines, ...), which is exactly the
// extension point the paper describes: wrapped in a TextFormatReader
// (core/format.hpp), a parser's delimiter() decides where its records
// end for partitioned reads and parallel parse alike.

#include <cstdint>
#include <functional>
#include <string_view>

#include "geom/geometry.hpp"
#include "geom/geometry_batch.hpp"

namespace mvio::core {

/// Statistics from a bulk parse.
struct ParseStats {
  std::uint64_t records = 0;     ///< geometries successfully produced
  std::uint64_t badRecords = 0;  ///< malformed records skipped
  std::uint64_t bytes = 0;       ///< input bytes consumed
};

/// CPU accounting of one FormatReader::parseChunk call. `critical` is the
/// time a rank with a real pool would block for — the slowest worker plus
/// the serial splice-back — and is what the framework charges to the rank
/// clock; `cpuSum` is the total CPU all workers burned.
struct ParseTiming {
  double cpuSum = 0;
  double critical = 0;
};

class Parser {
 public:
  virtual ~Parser() = default;

  /// Parse a single record (one delimiter-separated string, delimiter
  /// excluded). Returns false for records that should be skipped (blank
  /// lines, padding) and throws util::Error for malformed content when
  /// `strict` parsing is on.
  [[nodiscard]] virtual bool parseRecord(std::string_view record, geom::Geometry& out) const = 0;

  /// Batch sink: parse one record straight into `out`'s arenas. The default
  /// routes through parseRecord() + GeometryBatch::append(); the shipped
  /// parsers override it with allocation-free direct-to-arena writes.
  [[nodiscard]] virtual bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const;

  /// Record delimiter in the file (newline for all shipped formats). The
  /// one byte TextFormatReader cuts blocks and parse slices at.
  [[nodiscard]] virtual char delimiter() const { return '\n'; }

  /// Split `text` on the delimiter and parse every record, invoking `sink`
  /// for each geometry. Malformed records are counted, not fatal (a
  /// 100-GB run should not die on one bad line).
  ParseStats parseAll(std::string_view text, const std::function<void(geom::Geometry&&)>& sink) const;

  /// Batch bulk parse: split on the delimiter (memchr scan) and parse every
  /// record into `out` via parseRecordInto(). This is the pipeline's hot
  /// path — no per-record Geometry objects are created.
  ParseStats parseAll(std::string_view text, geom::GeometryBatch& out) const;
};

/// WKT records: "<wkt>" or "<wkt>\t<attributes...>". Attributes are stored
/// in Geometry::userData verbatim.
class WktParser final : public Parser {
 public:
  [[nodiscard]] bool parseRecord(std::string_view record, geom::Geometry& out) const override;
  [[nodiscard]] bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const override;
};

/// CSV point records: "x,y" or "x,y,<attributes...>" (taxi-trip style).
class CsvPointParser final : public Parser {
 public:
  [[nodiscard]] bool parseRecord(std::string_view record, geom::Geometry& out) const override;
  [[nodiscard]] bool parseRecordInto(std::string_view record, geom::GeometryBatch& out) const override;
};

}  // namespace mvio::core
