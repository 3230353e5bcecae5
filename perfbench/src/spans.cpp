#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <string_view>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<double, double>;

/// Total length of the union of `iv` (sorted in place).
double unionLength(std::vector<Interval>& iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0, lo = 0, hi = -1;
  for (const auto& [b, e] : iv) {
    if (e <= b) continue;
    if (b > hi) {
      if (hi > lo) total += hi - lo;
      lo = b;
      hi = e;
    } else {
      hi = std::max(hi, e);
    }
  }
  if (hi > lo) total += hi - lo;
  return total;
}

}  // namespace

double hostNow() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch()).count();
}

Tracer::Tracer() : origin_(hostNow()) { spans_.reserve(1 << 16); }

double Tracer::now() const { return hostNow() - origin_; }

int Tracer::open(const char* layer, const char* name, int parent, int job) {
  Span s;
  s.layer = layer;
  s.name = name;
  s.parent = parent;
  s.job = job;
  s.thread = ThreadSpan::index();
  s.start = now();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int id, std::uint64_t items) {
  const double t = now();
  std::lock_guard<std::mutex> lock(mutex_);
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end = t;
  s.items = items;
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::writeChrome(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s.%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":%d,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"items\":%llu}}\n",
                 i == 0 ? "" : ",", s.layer, s.name, s.layer, s.job, s.thread,
                 s.start * 1e6, (s.end - s.start) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.items));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

int& ThreadSpan::current() {
  thread_local int id = -1;
  return id;
}

int& ThreadSpan::job() {
  thread_local int job = 0;
  return job;
}

int ThreadSpan::index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

Scope::Scope(Tracer* tracer, const char* layer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) return;
  saved_ = ThreadSpan::current();
  id_ = tracer_->open(layer, name, saved_, ThreadSpan::job());
  ThreadSpan::current() = id_;
}

Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->close(id_, items_);
  ThreadSpan::current() = saved_;
}

TraceSummary analyse(const std::vector<Span>& spans) {
  TraceSummary out;
  const auto isRank = [&](std::size_t i) {
    return std::string_view(spans[i].layer) == "bench" && std::string_view(spans[i].name) == "rank";
  };
  std::vector<std::vector<int>> children(spans.size());
  std::vector<int> rankOf(spans.size(), -1);  // enclosing rank span; parents precede children
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int parent = spans[i].parent;
    if (parent < 0) continue;
    children[static_cast<std::size_t>(parent)].push_back(static_cast<int>(i));
    rankOf[i] = isRank(static_cast<std::size_t>(parent)) ? parent : rankOf[static_cast<std::size_t>(parent)];
  }
  std::map<int, std::map<std::string, std::vector<Interval>>> layerIv;  // rank span -> layer -> spans
  std::map<int, std::vector<Interval>> coveredIv;                      // rank span -> library spans
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent < 0) continue;
    std::vector<Interval> kids;
    for (const int c : children[i]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      kids.emplace_back(std::max(k.start, s.start), std::min(k.end, s.end));
    }
    out.layers[s.layer].selfSeconds += (s.end - s.start) - unionLength(kids);
    if (isRank(i)) out.rankSeconds += s.end - s.start;
    if (rankOf[i] < 0 || std::string_view(s.layer) == "bench") continue;
    layerIv[rankOf[i]][s.layer].emplace_back(s.start, s.end);
    coveredIv[rankOf[i]].emplace_back(s.start, s.end);
  }
  for (auto& [rank, layers] : layerIv) {
    for (auto& [layer, iv] : layers) out.layers[layer].coverSeconds += unionLength(iv);
  }
  for (auto& [rank, iv] : coveredIv) out.coveredSeconds += unionLength(iv);
  return out;
}

}  // namespace perfbench
