// In-memory span log for the traced run. Spans are recorded by the
// benchmark around its calls into each engine layer (nothing inside the
// engine is instrumented), kept in per-thread buffers, analysed into
// per-layer self times at the end of the run and written out as JSON
// lines.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The layer a span times. kQuery is the root of one traced query:
/// route (Shard::MayContain on every shard) -> per touched shard, the
/// lane queue wait and a shard span holding plan, filter, fetch and
/// estimate -> gather (from the last shard finishing to the merged
/// answer).
enum class Layer : uint8_t {
  kQuery,
  kRoute,
  kQueue,
  kShard,
  kPlan,
  kFilter,
  kFetch,
  kEstimate,
  kGather,
  kCount
};

const char* LayerName(Layer layer);

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 for a root
  uint64_t query = 0;
  Clock::time_point start;
  Clock::time_point end;
  Layer layer = Layer::kQuery;
  int32_t shard = -1;  // shard the span ran for; -1 on the client thread
};

/// Spans of many threads. Each buffer is appended to by one thread at a
/// time (a client thread, or one shard lane serving that client), so
/// recording takes no lock; ids come from one atomic counter.
class SpanLog {
 public:
  explicit SpanLog(size_t buffers) : buffers_(buffers) {}

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  /// Records a finished span into buffer `b`; `id` 0 draws a fresh id.
  void Add(size_t b, Layer layer, uint64_t parent, uint64_t query,
           int32_t shard, Clock::time_point start, Clock::time_point end,
           uint64_t id = 0) {
    Span s;
    s.id = id != 0 ? id : NextId();
    s.parent = parent;
    s.query = query;
    s.start = start;
    s.end = end;
    s.layer = layer;
    s.shard = shard;
    buffers_[b].push_back(s);
  }

  /// Every span, grouped by query in ascending query order.
  std::vector<Span> Merge() const;

 private:
  std::vector<std::vector<Span>> buffers_;
  std::atomic<uint64_t> next_id_{0};
};

/// Per-layer totals over the traced queries.
struct TraceSummary {
  uint64_t queries = 0;
  /// Self time per layer: a span's duration minus the part of it its
  /// children cover.
  std::array<double, static_cast<size_t>(Layer::kCount)> self_seconds{};
  /// Sum of root (query) wall times.
  double wall_seconds = 0.0;
  /// Sum over queries of the layer time on the blocking path: route,
  /// the lane queue wait and the plan/filter/fetch/estimate self times
  /// of the shard that finished last, and gather. These intervals are
  /// disjoint and lie inside the query span, so attributed <= wall;
  /// the remainder is time no layer call accounts for.
  double attributed_seconds = 0.0;

  double self(Layer layer) const {
    return self_seconds[static_cast<size_t>(layer)];
  }
  double coverage() const {
    return wall_seconds > 0 ? attributed_seconds / wall_seconds : 0.0;
  }
};

/// Self times and blocking-path coverage of `spans` (as Merge returns
/// them).
TraceSummary Summarize(const std::vector<Span>& spans);

/// Writes one JSON object per span (times in microseconds since
/// `origin`). Returns false when the file cannot be written.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                Clock::time_point origin);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
