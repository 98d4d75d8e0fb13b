// Seeded inputs of the fielddb benchmark: the three workloads, their
// query pools, operation streams and sensor-update batches. Everything
// here is a pure function of (workload, seed), so two runs with the same
// seed see byte-identical inputs (SelfTest checks it).

#ifndef PERFBENCH_STREAMS_H_
#define PERFBENCH_STREAMS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "core/field_database.h"
#include "field/field.h"

namespace perfbench {

using fielddb::CellId;
using fielddb::ValueInterval;

/// One named workload. Every workload runs against the same 4-shard
/// I-Hilbert router over the 512x512 Roseburg-like terrain; they differ
/// in pool size (working set against cache), band widths and the share
/// of sensor-update batches.
struct WorkloadSpec {
  const char* name;
  /// Buffer-pool frames per shard. The store is ~1,681 pages per shard.
  size_t pool_pages_per_shard;
  /// Q2 band widths as fractions of the terrain's value range, drawn in
  /// equal shares.
  std::vector<double> band_widths;
  /// Probability that an operation is a 64-cell update batch.
  double update_prob;
};

/// The workload called `name`, or null.
const WorkloadSpec* FindWorkload(const std::string& name);
/// Names of every workload, for usage messages.
std::string WorkloadNames();

inline constexpr size_t kShards = 4;
inline constexpr size_t kClients = 4;
/// Distinct queries per band width. Centers are stratified over the
/// value range (one per stratum, seeded jitter), so the pool's cost mix
/// barely moves between seeds while every query is still seed-specific.
inline constexpr size_t kQueriesPerWidth = 64;
/// Fixed sensor stations: every update batch writes 64 of these cells.
/// Bounding the set also bounds the dirty pages the no-steal WAL pins
/// between checkpoints: a 256-frame pool is 16 LRU shards of 16 frames,
/// and a shard whose frames are all dirty refuses further reads
/// ("checkpoint required"). 256 sensors put ~4 dirty store pages in each
/// pool shard of the 256-frame workload.
inline constexpr size_t kSensorCells = 256;
inline constexpr size_t kBatchCells = 64;
/// Perturbation of a sensor reading, as a fraction of the value range.
inline constexpr double kPerturbation = 0.03;
/// Length of the operation stream; clients wrap around past its end.
inline constexpr size_t kStreamLength = size_t{1} << 18;
/// Update batches written after the measured phase, between the final
/// checkpoint and the simulated crash (the WAL tail recovery replays).
inline constexpr size_t kTailBatches = 128;

enum class OpKind : uint8_t { kQuery = 0, kUpdate = 1 };

/// One client operation. `arg` is the query-pool index for a query and
/// the batch number (0, 1, 2, ...) for an update.
struct Op {
  OpKind kind = OpKind::kQuery;
  uint32_t arg = 0;
};

/// The workload's distinct queries, grouped by band width.
std::vector<ValueInterval> MakeQueryPool(const WorkloadSpec& spec,
                                         const ValueInterval& range,
                                         uint64_t seed);

/// The operation stream: queries walk seeded permutations of the pool.
/// With update probability p, every block of round(1/p) operations holds
/// one update batch at a seeded position, so each operation is an update
/// with probability p and every stretch of the stream has the same mix.
std::vector<Op> MakeOpStream(const WorkloadSpec& spec, size_t pool_size,
                             uint64_t seed, size_t length);

/// Batch streams: the measured phase's update batches and the tail
/// written after the final checkpoint draw from separate streams, so the
/// tail is the same whatever number of batches the measured phase ran.
enum class BatchStream : uint64_t { kMeasured = 1, kTail = 2 };

/// Generates update batches over a fixed set of sensor cells.
class BatchMaker {
 public:
  BatchMaker(const fielddb::Field& base, const ValueInterval& range,
             uint64_t seed);

  /// Batch `index` of `stream`: kBatchCells distinct sensor cells, each
  /// corner value its terrain value plus a seeded perturbation.
  std::vector<fielddb::FieldDatabase::CellUpdate> Make(BatchStream stream,
                                                       uint64_t index) const;

 private:
  const fielddb::Field& base_;
  double span_;
  uint64_t seed_;
  std::vector<CellId> sensors_;
};

/// Byte serialization of every seeded input a run of `spec` with `seed`
/// would use (pool, stream prefix, measured and tail batches).
std::string SerializeInputs(const WorkloadSpec& spec,
                            const fielddb::Field& base,
                            const ValueInterval& range, uint64_t seed);

/// Seed-determinism self-test: the same seed must serialize to identical
/// bytes and a different seed to different bytes. Returns an empty
/// string on success, else what failed.
std::string SelfTest(const WorkloadSpec& spec, const fielddb::Field& base,
                     const ValueInterval& range, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_STREAMS_H_
