#include "streams.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "common/rng.h"

namespace perfbench {

namespace {

// Why each workload exists is recorded in BENCHMARK.json; the numbers
// here are what makes them differ.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // 256 frames x 4 shards = 4 MB against a ~27 MB store.
      {"terrain_disk", 256, {0.001, 0.01, 0.05}, 0.0},
      // 4,096 frames per shard hold the whole ~1,681-page shard.
      {"terrain_resident", 4096, {0.01, 0.10, 0.35}, 0.0},
      {"sensor_update", 4096, {0.01, 0.05}, 0.1},
  };
  return specs;
}

/// Independent sub-stream seed for (seed, tag, index).
uint64_t Mix(uint64_t seed, uint64_t tag, uint64_t index) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull ^ (tag + 0x632BE59BD9B4E019ull) ^
               (index * 0xBF58476D1CE4E5B9ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

enum Tag : uint64_t { kPoolTag = 11, kStreamTag = 12, kSensorTag = 13 };

template <typename T>
void AppendBytes(std::string* out, const T& v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string out;
  for (const WorkloadSpec& w : Workloads()) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::vector<ValueInterval> MakeQueryPool(const WorkloadSpec& spec,
                                         const ValueInterval& range,
                                         uint64_t seed) {
  const double span = range.max - range.min;
  std::vector<ValueInterval> pool;
  pool.reserve(spec.band_widths.size() * kQueriesPerWidth);
  for (size_t w = 0; w < spec.band_widths.size(); ++w) {
    fielddb::Rng rng(Mix(seed, kPoolTag, w));
    const double width = spec.band_widths[w] * span;
    // Stratified centers: one per equal slice of [min + w/2, max - w/2].
    const double lo = range.min + width / 2;
    const double slice = (span - width) / kQueriesPerWidth;
    for (size_t i = 0; i < kQueriesPerWidth; ++i) {
      const double center = lo + slice * (static_cast<double>(i) +
                                          rng.NextDouble());
      pool.push_back(ValueInterval{center - width / 2, center + width / 2});
    }
  }
  return pool;
}

std::vector<Op> MakeOpStream(const WorkloadSpec& spec, size_t pool_size,
                             uint64_t seed, size_t length) {
  fielddb::Rng rng(Mix(seed, kStreamTag, 0));
  const size_t block =
      spec.update_prob > 0 ? static_cast<size_t>(1.0 / spec.update_prob + 0.5)
                           : 0;
  std::vector<uint32_t> order(pool_size);
  size_t next = pool_size;  // forces a fresh permutation first
  size_t update_at = 0;
  uint32_t batches = 0;
  std::vector<Op> ops;
  ops.reserve(length);
  while (ops.size() < length) {
    if (block > 0) {
      const size_t in_block = ops.size() % block;
      if (in_block == 0) update_at = rng.NextBounded(block);
      if (in_block == update_at) {
        ops.push_back({OpKind::kUpdate, batches++});
        continue;
      }
    }
    if (next == pool_size) {
      std::iota(order.begin(), order.end(), 0u);
      for (size_t i = pool_size; i > 1; --i) {
        std::swap(order[i - 1], order[rng.NextBounded(i)]);
      }
      next = 0;
    }
    ops.push_back({OpKind::kQuery, order[next++]});
  }
  return ops;
}

BatchMaker::BatchMaker(const fielddb::Field& base, const ValueInterval& range,
                       uint64_t seed)
    : base_(base), span_(range.max - range.min), seed_(seed) {
  // Stations are fixed installations: their placement is the same for
  // every seed, while the stations each batch writes and the readings
  // are seeded. Each update rescans its I-Hilbert subfield, and subfield
  // sizes are heavy-tailed, so a seeded placement moved recovery time on
  // terrain_disk by up to 20% from one seed to the next.
  fielddb::Rng rng(Mix(0, kSensorTag, 0));
  // Stratified placement: sensor i sits at a pseudo-random cell of the
  // i-th equal slice of the cell ids, so stations cover the whole
  // terrain and every shard gets its share.
  const uint64_t n = base.NumCells();
  const uint64_t count = std::min<uint64_t>(kSensorCells, n);
  sensors_.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    const uint64_t lo = i * n / count;
    const uint64_t hi = (i + 1) * n / count;
    sensors_.push_back(static_cast<CellId>(lo + rng.NextBounded(hi - lo)));
  }
}

std::vector<fielddb::FieldDatabase::CellUpdate> BatchMaker::Make(
    BatchStream stream, uint64_t index) const {
  fielddb::Rng rng(Mix(seed_, static_cast<uint64_t>(stream) << 32, index));
  std::vector<CellId> pick = sensors_;
  const size_t count = std::min(kBatchCells, pick.size());
  std::vector<fielddb::FieldDatabase::CellUpdate> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::swap(pick[i], pick[i + rng.NextBounded(pick.size() - i)]);
    const fielddb::CellRecord cell = base_.GetCell(pick[i]);
    fielddb::FieldDatabase::CellUpdate u;
    u.id = pick[i];
    u.values.resize(cell.num_vertices);
    for (uint32_t v = 0; v < cell.num_vertices; ++v) {
      u.values[v] =
          cell.w[v] + span_ * kPerturbation * rng.NextDouble(-1.0, 1.0);
    }
    batch.push_back(std::move(u));
  }
  return batch;
}

std::string SerializeInputs(const WorkloadSpec& spec,
                            const fielddb::Field& base,
                            const ValueInterval& range, uint64_t seed) {
  std::string out;
  const std::vector<ValueInterval> pool = MakeQueryPool(spec, range, seed);
  for (const ValueInterval& q : pool) {
    AppendBytes(&out, q.min);
    AppendBytes(&out, q.max);
  }
  // A prefix long enough to hold several pool permutations and, on the
  // update workload, dozens of batches.
  const std::vector<Op> ops =
      MakeOpStream(spec, pool.size(), seed, 4 * pool.size());
  for (const Op& op : ops) {
    AppendBytes(&out, static_cast<uint8_t>(op.kind));
    AppendBytes(&out, op.arg);
  }
  const BatchMaker maker(base, range, seed);
  for (const BatchStream stream : {BatchStream::kMeasured, BatchStream::kTail}) {
    for (uint64_t b = 0; b < 8; ++b) {
      for (const auto& u : maker.Make(stream, b)) {
        AppendBytes(&out, u.id);
        for (const double v : u.values) AppendBytes(&out, v);
      }
    }
  }
  return out;
}

std::string SelfTest(const WorkloadSpec& spec, const fielddb::Field& base,
                     const ValueInterval& range, uint64_t seed) {
  const std::string a = SerializeInputs(spec, base, range, seed);
  const std::string b = SerializeInputs(spec, base, range, seed);
  if (a != b) return "the same seed produced different inputs";
  const std::string c = SerializeInputs(spec, base, range, seed + 1);
  if (a == c) return "a different seed produced identical inputs";
  return "";
}

}  // namespace perfbench
