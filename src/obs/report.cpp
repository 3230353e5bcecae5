#include "obs/report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace mvio::obs {

namespace {

void appendJsonString(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out += buf;
        } else {
          out.push_back(ch);
        }
    }
  }
  out.push_back('"');
}

void appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "0";  // JSON has no inf/nan; reports carry finite data only
    return;
  }
  if (v == static_cast<double>(static_cast<long long>(v)) && std::fabs(v) < 1e15) {
    out += std::to_string(static_cast<long long>(v));
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

void appendField(std::string& out, bool& first, const std::string& key, double v) {
  if (!first) out.push_back(',');
  first = false;
  appendJsonString(out, key);
  out.push_back(':');
  appendNumber(out, v);
}

}  // namespace

core::PhaseBreakdown RunReport::capturePhases(mpi::Comm& comm,
                                              const core::PhaseBreakdown& local) {
  const core::PhaseBreakdown reduced = local.maxAcross(comm);
  if (comm.rank() == 0) {
    phases = reduced;
    hasPhases = true;
  }
  return reduced;
}

void RunReport::captureMetrics(mpi::Comm& comm) {
  std::vector<MetricSummary> merged = aggregateMetrics(comm);
  if (comm.rank() == 0) metrics = std::move(merged);
}

std::string RunReport::toJson() const {
  std::string out;
  out += "{\"schema\":\"mvio.run_report\",\"version\":" + std::to_string(kVersion) + ",";
  out += "\"name\":";
  appendJsonString(out, name);
  out += ",\"setup\":";
  appendJsonString(out, setup);
  out += ",\"phases\":{";
  if (hasPhases) {
    bool first = true;
    for (const core::PhaseField& f : core::kPhaseFields) {
      if (f.seconds != nullptr) appendField(out, first, f.name, phases.*f.seconds);
    }
    appendField(out, first, "total", phases.total());
    for (const core::PhaseField& f : core::kPhaseFields) {
      if (f.count != nullptr) appendField(out, first, f.name, static_cast<double>(phases.*f.count));
    }
  }
  out += "},\"values\":{";
  {
    bool first = true;
    for (const auto& [key, v] : values) appendField(out, first, key, v);
  }
  out += "},\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricSummary& m = metrics[i];
    if (i > 0) out.push_back(',');
    out += "{\"name\":";
    appendJsonString(out, m.name);
    out += ",\"kind\":\"";
    out.push_back(m.kind);
    out += "\"";
    bool first = false;
    appendField(out, first, "count", static_cast<double>(m.count));
    appendField(out, first, "min", m.min);
    appendField(out, first, "max", m.max);
    appendField(out, first, "sum", m.sum);
    appendField(out, first, "mean", m.mean);
    appendField(out, first, "p50", m.p50);
    appendField(out, first, "p99", m.p99);
    out += "}";
  }
  out += "]}\n";
  return out;
}

void RunReport::writeFile(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  MVIO_CHECK(out.good(), "cannot open report output file: " + path);
  out << toJson();
  MVIO_CHECK(out.good(), "failed writing report output file: " + path);
}

}  // namespace mvio::obs
