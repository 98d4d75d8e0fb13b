#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

double Sec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Length of the union of `intervals` clipped to [lo, hi].
double CoveredSeconds(
    std::vector<std::pair<Clock::time_point, Clock::time_point>>* intervals,
    Clock::time_point lo, Clock::time_point hi) {
  std::sort(intervals->begin(), intervals->end());
  double covered = 0.0;
  Clock::time_point cursor = lo;
  for (auto [s, e] : *intervals) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e <= s) continue;
    covered += Sec(s, e);
    cursor = e;
  }
  return covered;
}

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery: return "query";
    case Layer::kRoute: return "router.route";
    case Layer::kQueue: return "lane.queue";
    case Layer::kShard: return "shard";
    case Layer::kPlan: return "plan";
    case Layer::kFilter: return "index.filter";
    case Layer::kFetch: return "storage.fetch";
    case Layer::kEstimate: return "field.estimate";
    case Layer::kGather: return "router.gather";
    case Layer::kCount: break;
  }
  return "?";
}

std::vector<Span> SpanLog::Merge() const {
  std::vector<Span> all;
  size_t n = 0;
  for (const auto& b : buffers_) n += b.size();
  all.reserve(n);
  for (const auto& b : buffers_) all.insert(all.end(), b.begin(), b.end());
  std::stable_sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.query < b.query;
  });
  return all;
}

TraceSummary Summarize(const std::vector<Span>& spans) {
  TraceSummary out;
  std::unordered_map<uint64_t, size_t> index;
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children;
  for (size_t begin = 0; begin < spans.size();) {
    size_t end = begin;
    while (end < spans.size() && spans[end].query == spans[begin].query) ++end;

    index.clear();
    children.assign(end - begin, {});
    for (size_t i = begin; i < end; ++i) index[spans[i].id] = i - begin;
    const Span* root = nullptr;
    const Span* last_shard = nullptr;
    for (size_t i = begin; i < end; ++i) {
      const Span& s = spans[i];
      if (s.layer == Layer::kQuery) root = &s;
      if (s.layer == Layer::kShard &&
          (last_shard == nullptr || s.end > last_shard->end)) {
        last_shard = &s;
      }
      const auto p = index.find(s.parent);
      if (p != index.end()) children[p->second].emplace_back(s.start, s.end);
    }
    if (root != nullptr) {
      ++out.queries;
      out.wall_seconds += Sec(root->start, root->end);
    }
    double attributed = 0.0;
    for (size_t i = begin; i < end; ++i) {
      const Span& s = spans[i];
      const double self = Sec(s.start, s.end) -
                          CoveredSeconds(&children[i - begin], s.start, s.end);
      out.self_seconds[static_cast<size_t>(s.layer)] += self;
      const bool on_path =
          s.layer == Layer::kRoute || s.layer == Layer::kGather ||
          (last_shard != nullptr &&
           ((s.layer == Layer::kQueue && s.shard == last_shard->shard) ||
            s.parent == last_shard->id));
      if (on_path) attributed += self;
    }
    if (root != nullptr) out.attributed_seconds += attributed;
    begin = end;
  }
  return out;
}

bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                Clock::time_point origin) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  bool ok = true;
  for (const Span& s : spans) {
    const double start_us =
        std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double end_us =
        std::chrono::duration<double, std::micro>(s.end - origin).count();
    ok = std::fprintf(f,
                      "{\"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                      "\"name\": \"%s\", \"shard\": %d, \"start_us\": %.3f, "
                      "\"end_us\": %.3f}\n",
                      static_cast<unsigned long long>(s.id),
                      static_cast<unsigned long long>(s.parent),
                      static_cast<unsigned long long>(s.query),
                      LayerName(s.layer), s.shard, start_us, end_us) > 0 &&
         ok;
  }
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
