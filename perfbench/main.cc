// perfbench: the fielddb benchmark driver.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --dir <scratch directory> [--spans <file>]
//
// Builds the 512x512 Roseburg-like terrain into a 4-shard I-Hilbert
// ShardRouter, saves it and reopens it from disk (the set-up every
// workload shares), then drives it with 4 closed-loop client threads for
// --seconds. Every answer is checked against a brute-force LinearScan
// oracle, every acknowledged sensor update must survive a simulated
// crash, and the last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones. The timed ones
// that must repeat from run to run (op_cpu_ms, recovery_cpu_s) are
// process CPU time, not wall time: on a virtual machine whose host is
// shared, wall time moves with the CPU time the hypervisor steals, and
// the kernel leaves stolen time out of a process's CPU time. Wall-clock
// throughput and latency are reported with the per-layer metrics, next
// to the stolen share. With --trace 1 the run is split into an untraced
// half (router profile) and a traced half that replays each query's
// pipeline from outside the engine, and the metrics are the per-layer
// ones; --spans names the file the traced run's spans are written to
// (JSON lines).

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/simd/interval_filter.h"
#include "core/shard_router.h"
#include "core/stats.h"
#include "field/isoband.h"
#include "gen/fractal.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "plan/operators.h"
#include "storage/async_io.h"
#include "storage/crc32c.h"
#include "storage/io_sink.h"
#include "storage/page_file.h"
#include "storage/wal.h"
#include "spans.h"
#include "streams.h"

namespace perfbench {
namespace {

using namespace fielddb;

/// Build + Save + Open repetitions per run; setup_s is their median.
constexpr size_t kSetupReps = 5;
/// Crash + Open repetitions per run; recovery_cpu_s is their median. The
/// log is kept after each replay (kFsyncOnCommit), so every repetition
/// replays the same tail.
constexpr size_t kRecoveryReps = 7;
/// Acknowledged measured batches between checkpoints (sensor_update).
constexpr size_t kCheckpointEvery = 64;
/// Layer coverage: the blocking-path layer self times must account for
/// at least this share of the traced queries' wall time.
constexpr double kMinCoverage = 0.90;
/// Durability probes: pool queries of the narrowest band width, plus
/// narrow bands around new values of the last tail batch.
constexpr size_t kPoolProbes = 16;
constexpr size_t kSensorProbes = 16;
/// Percentiles reported (the run line gives the sample counts), and the
/// commit samples p90 needs to leave at least 10 beyond it.
constexpr double kQueryTail = 95.0;
constexpr double kCommitTail = 90.0;
constexpr size_t kMinCommitSamples = 100;

double Sec(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
double Ms(Clock::time_point a, Clock::time_point b) { return Sec(a, b) * 1e3; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, 50.0);
}
double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return PercentileOfSorted(v, p);
}
double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}
double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// CPU time of every thread of this process, user + system. The kernel
/// leaves out time the hypervisor took the virtual CPU away (steal), so
/// on a shared host this moves far less than wall time does.
double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Machine-wide CPU ticks from /proc/stat: stolen and total.
struct CpuTicks {
  uint64_t steal = 0;
  uint64_t total = 0;
};
CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return t;
  t.steal = v[7];
  for (const unsigned long long x : v) t.total += x;
  return t;
}
/// Share of the machine's CPU time stolen between `a` and `b`.
double StealFrac(const CpuTicks& a, const CpuTicks& b) {
  return Ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

/// Progress line on stderr: seconds since the run started, then `what`.
void Progress(const char* what) {
  static const Clock::time_point start = Clock::now();
  std::fprintf(stderr, "[%8.3f s] %s\n", Sec(start, Clock::now()), what);
}

std::string ShardFile(const std::string& prefix, size_t k, const char* ext) {
  return prefix + ".s" + std::to_string(k) + ext;
}

// ---------------------------------------------------------------------------
// Correctness bookkeeping

/// What a Q2 answer is checked by: answer cells and region pieces.
struct Answer {
  uint64_t cells = 0;
  uint64_t pieces = 0;
  friend bool operator==(const Answer&, const Answer&) = default;
};

/// Reference answers from the brute-force oracle (a LinearScan database
/// in kForceScan mode), computed on kClients threads.
Status OracleAnswers(const FieldDatabase& oracle,
                     const std::vector<ValueInterval>& queries,
                     std::vector<Answer>* out) {
  out->assign(queries.size(), Answer{});
  std::vector<Status> status(kClients, Status::OK());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kClients; ++t) {
    threads.emplace_back([&, t] {
      ValueQueryResult r;
      for (;;) {
        const size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        const Status s = oracle.ValueQuery(queries[i], &r);
        if (!s.ok()) {
          status[t] = s;
          return;
        }
        (*out)[i] = {r.stats.answer_cells, r.region.NumPieces()};
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Status& s : status) FIELDDB_RETURN_IF_ERROR(s);
  return Status::OK();
}

/// Expected answers of a fixed query set, kept current under update
/// batches by re-estimating only the updated cells with the engine's own
/// estimation step (CellIsoband on cells whose interval intersects the
/// query, exactly the cells the zone-filtered scan visits). The end of
/// every run checks the tracked answers against the oracle.
class AnswerTracker {
 public:
  AnswerTracker(const Field& base, const std::vector<ValueInterval>& queries,
                std::vector<Answer> initial)
      : base_(base), queries_(queries), expected_(std::move(initial)) {}

  Status Apply(const std::vector<FieldDatabase::CellUpdate>& batch) {
    for (const FieldDatabase::CellUpdate& u : batch) {
      auto it = current_.find(u.id);
      if (it == current_.end()) {
        it = current_.emplace(u.id, base_.GetCell(u.id)).first;
      }
      CellRecord next = it->second;
      for (size_t v = 0; v < u.values.size() && v < 4; ++v) {
        next.w[v] = u.values[v];
      }
      for (size_t q = 0; q < queries_.size(); ++q) {
        StatusOr<size_t> before = Pieces(it->second, queries_[q]);
        StatusOr<size_t> after = Pieces(next, queries_[q]);
        if (!before.ok()) return before.status();
        if (!after.ok()) return after.status();
        expected_[q].cells += (*after > 0);
        expected_[q].cells -= (*before > 0);
        expected_[q].pieces += *after;
        expected_[q].pieces -= *before;
      }
      it->second = next;
    }
    return Status::OK();
  }

  const std::vector<Answer>& expected() const { return expected_; }

 private:
  StatusOr<size_t> Pieces(const CellRecord& cell, const ValueInterval& q) {
    if (!cell.Interval().Intersects(q)) return size_t{0};
    scratch_.pieces.clear();
    return CellIsoband(cell, q, &scratch_);
  }

  const Field& base_;
  const std::vector<ValueInterval>& queries_;
  std::vector<Answer> expected_;
  std::unordered_map<CellId, CellRecord> current_;
  Region scratch_;
};

// ---------------------------------------------------------------------------
// Concurrency helpers

/// Writer-preferring reader/writer gate: update batches and checkpoints
/// need the router to themselves (its mutation contract), and a waiting
/// writer holds back new readers so updates are not starved by a steady
/// stream of queries.
class Gate {
 public:
  void LockShared() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return !writer_ && writers_waiting_ == 0; });
    ++readers_;
  }
  void UnlockShared() {
    std::lock_guard<std::mutex> lock(mu_);
    if (--readers_ == 0 && writers_waiting_ > 0) cv_.notify_all();
  }
  void Lock() {
    std::unique_lock<std::mutex> lock(mu_);
    ++writers_waiting_;
    cv_.wait(lock, [this] { return !writer_ && readers_ == 0; });
    --writers_waiting_;
    writer_ = true;
  }
  void Unlock() {
    std::lock_guard<std::mutex> lock(mu_);
    writer_ = false;
    cv_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  size_t readers_ = 0;
  size_t writers_waiting_ = 0;
  bool writer_ = false;
};

// ---------------------------------------------------------------------------
// The closed loop

/// How a phase executes its queries.
enum class Mode {
  kPlain,     // ShardRouter::ValueQuery
  kProfiled,  // ShardRouter::ValueQuery with a RouterQueryProfile
  kTraced,    // the pipeline replayed from outside, one span per layer call
  kWarmUp,    // ShardRouter::ValueQueryStats: touches the same pages, no
              // regions, nothing recorded
};

/// Counters of the traced replay, summed over shards and queries.
struct LayerCounts {
  uint64_t shard_queries = 0;
  uint64_t indexed_plans = 0;
  uint64_t candidates = 0;
  uint64_t runs = 0;
  uint64_t answers = 0;
  uint64_t fetched_pages = 0;
  uint64_t useful_pages = 0;
  IoStats io;

  void Add(const LayerCounts& o) {
    shard_queries += o.shard_queries;
    indexed_plans += o.indexed_plans;
    candidates += o.candidates;
    runs += o.runs;
    answers += o.answers;
    fetched_pages += o.fetched_pages;
    useful_pages += o.useful_pages;
    io += o.io;
  }
};

struct QueryRecord {
  uint32_t query = 0;
  uint32_t version = 0;  // acknowledged batches visible to the query
  Answer got;
};

/// What one client (or one phase, once merged) measured.
struct Measured {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
  std::vector<double> query_ms;
  std::vector<double> query_gate_ms;
  std::vector<double> commit_ms;  // gate wait + UpdateCellValuesBatch
  std::vector<double> update_gate_ms;
  std::vector<double> update_batch_ms;
  std::vector<QueryRecord> records;
  // kProfiled:
  uint64_t touched = 0;
  uint64_t skipped = 0;
  std::vector<double> gather_ms;
  // kTraced:
  LayerCounts layers;

  void Fail(const Status& s) {
    ++failed;
    if (first_error.empty()) first_error = s.ToString();
  }

  void Merge(Measured&& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (first_error.empty()) first_error = std::move(o.first_error);
    const auto cat = [](std::vector<double>* a, const std::vector<double>& b) {
      a->insert(a->end(), b.begin(), b.end());
    };
    cat(&query_ms, o.query_ms);
    cat(&query_gate_ms, o.query_gate_ms);
    cat(&commit_ms, o.commit_ms);
    cat(&update_gate_ms, o.update_gate_ms);
    cat(&update_batch_ms, o.update_batch_ms);
    records.insert(records.end(), o.records.begin(), o.records.end());
    touched += o.touched;
    skipped += o.skipped;
    cat(&gather_ms, o.gather_ms);
    layers.Add(o.layers);
  }
};

/// Per-(client, shard) scratch of the traced replay. A client has one
/// query in flight and each shard lane runs one task at a time, so each
/// slot is written by one thread at a time and read by the client only
/// after the scatter latch.
struct ShardScratch {
  QueryContext ctx;
  std::vector<uint64_t> positions;
  std::vector<CellRecord> cells;
  Region region;
  QueryStats stats;
  Status status;
  LayerCounts counts;
  Clock::time_point submitted;
  Clock::time_point started;
  Clock::time_point finished;
};

/// Everything the clients share.
struct Shared {
  std::unique_ptr<ShardRouter> router;
  std::string prefix;
  const std::vector<ValueInterval>* pool = nullptr;
  const std::vector<Op>* ops = nullptr;
  const BatchMaker* maker = nullptr;
  Gate gate;
  std::atomic<size_t> next_op{0};
  std::atomic<uint64_t> next_query_id{0};

  // Written only under the exclusive gate.
  uint32_t version = 0;
  /// Acknowledged batches in the order they were applied.
  std::vector<std::pair<BatchStream, uint32_t>> acked;
  size_t acked_since_checkpoint = 0;
  std::vector<double> checkpoint_s;
  Status checkpoint_status;

  // kTraced:
  std::unique_ptr<SpanLog> spans;
  std::vector<std::vector<ShardScratch>> scratch;  // [client][shard]
};

size_t ClientBuffer(size_t client) { return client * (kShards + 1) + kShards; }
size_t ShardBuffer(size_t client, size_t shard) {
  return client * (kShards + 1) + shard;
}

/// Checkpoint under the exclusive gate.
void Checkpoint(Shared* sh) {
  const auto t0 = Clock::now();
  const Status s = sh->router->Save(sh->prefix);
  sh->checkpoint_s.push_back(Sec(t0, Clock::now()));
  if (!s.ok() && sh->checkpoint_status.ok()) sh->checkpoint_status = s;
  sh->acked_since_checkpoint = 0;
}

/// One acknowledged-or-failed update batch through the gate.
void DoUpdate(Shared* sh, BatchStream stream, uint32_t index, bool checkpoint,
              Measured* m) {
  const std::vector<FieldDatabase::CellUpdate> batch =
      sh->maker->Make(stream, index);
  ++m->attempted;
  const auto t0 = Clock::now();
  sh->gate.Lock();
  const auto t1 = Clock::now();
  const Status s = sh->router->UpdateCellValuesBatch(batch);
  const auto t2 = Clock::now();
  if (s.ok()) {
    ++sh->version;
    sh->acked.emplace_back(stream, index);
    if (checkpoint && ++sh->acked_since_checkpoint == kCheckpointEvery) {
      Checkpoint(sh);
    }
  }
  sh->gate.Unlock();
  if (!s.ok()) {
    m->Fail(s);
    return;
  }
  m->commit_ms.push_back(Ms(t0, t2));
  m->update_gate_ms.push_back(Ms(t0, t1));
  m->update_batch_ms.push_back(Ms(t1, t2));
}

/// One shard's share of a traced query, run on that shard's lane:
/// plan -> filter (indexed plans) -> fetch -> estimate, each call timed
/// as its own span. Fetch collects the zone-matching cells so that the
/// estimate step runs separately over exactly the cells the engine's
/// fused visitor would have estimated.
void ReplayShard(Shared* sh, size_t client, uint32_t k, uint64_t qid,
                 uint64_t root, uint64_t shard_span, const ValueInterval& q,
                 ShardScratch* s) {
  SpanLog& log = *sh->spans;
  const size_t buf = ShardBuffer(client, k);
  const int32_t shard = static_cast<int32_t>(k);
  s->started = Clock::now();
  s->status = Status::OK();
  s->stats = QueryStats{};
  s->counts = LayerCounts{};
  s->region.pieces.clear();
  s->positions.clear();
  s->cells.clear();
  s->ctx.io.Reset();
  ScopedIoSink sink(&s->ctx.io);

  const FieldDatabase& db = sh->router->shard(k).db();
  const CellStore& store = db.index().cell_store();
  const OperatorEnv env{&db.index(), &s->ctx, nullptr};

  auto t0 = Clock::now();
  const PhysicalPlan plan = db.PlanValueQuery(q);
  auto t1 = Clock::now();
  log.Add(buf, Layer::kPlan, shard_span, qid, shard, t0, t1);
  const bool indexed = plan.kind == PlanKind::kIndexedFilter;

  std::vector<PosRange>& ranges = s->ctx.ranges;
  ranges.clear();
  if (indexed) {
    uint64_t candidates = 0;
    t0 = Clock::now();
    s->status = RunFilterOp(env, q, &ranges, &candidates);
    t1 = Clock::now();
    log.Add(buf, Layer::kFilter, shard_span, qid, shard, t0, t1);
    s->stats.candidate_cells = candidates;
  } else {
    ranges.push_back(PosRange{0, store.size()});
  }

  if (s->status.ok()) {
    t0 = Clock::now();
    s->status = RunScanOp(env, q, ranges.data(), ranges.size(), nullptr,
                          &s->stats,
                          [s](uint64_t pos, const CellRecord& cell) {
                            s->positions.push_back(pos);
                            s->cells.push_back(cell);
                            return true;
                          });
    t1 = Clock::now();
    log.Add(buf, Layer::kFetch, shard_span, qid, shard, t0, t1);
  }

  if (s->status.ok()) {
    t0 = Clock::now();
    EstimateOp estimate(q, &s->region, &s->stats,
                        /*count_candidates=*/!indexed);
    for (size_t i = 0; i < s->cells.size(); ++i) {
      if (!estimate(s->positions[i], s->cells[i])) break;
    }
    s->status = estimate.status();
    t1 = Clock::now();
    log.Add(buf, Layer::kEstimate, shard_span, qid, shard, t0, t1);
  }

  // Page accounting: ScanRangesFiltered fetches every page of every run;
  // a fetched page is useful when it holds a zone-matching cell.
  const uint64_t cpp = store.cells_per_page();
  LayerCounts& c = s->counts;
  c.shard_queries = 1;
  c.indexed_plans = indexed ? 1 : 0;
  c.runs = ranges.size();
  for (const PosRange& r : ranges) {
    if (r.end > r.begin) c.fetched_pages += (r.end - 1) / cpp - r.begin / cpp + 1;
  }
  uint64_t last_page = ~uint64_t{0};
  for (const uint64_t pos : s->positions) {
    if (pos / cpp != last_page) {
      last_page = pos / cpp;
      ++c.useful_pages;
    }
  }
  c.candidates = s->stats.candidate_cells;
  c.answers = s->stats.answer_cells;
  c.io = s->ctx.io;
  s->finished = Clock::now();
  log.Add(buf, Layer::kShard, root, qid, shard, s->started, s->finished,
          shard_span);
}

/// A traced query: the router's scatter/gather reproduced from outside
/// (MayContain on every shard, one task per touched shard on that
/// shard's own lane, gather in ascending shard id).
Status ReplayQuery(Shared* sh, size_t client, const ValueInterval& q,
                   Answer* out, Measured* m) {
  SpanLog& log = *sh->spans;
  const uint64_t qid = sh->next_query_id.fetch_add(1) + 1;
  const uint64_t root = log.NextId();
  const size_t buf = ClientBuffer(client);
  const auto t0 = Clock::now();
  std::vector<uint32_t> targets;
  for (uint32_t k = 0; k < sh->router->num_shards(); ++k) {
    if (sh->router->shard(k).MayContain(q)) targets.push_back(k);
  }
  const auto t_route = Clock::now();
  log.Add(buf, Layer::kRoute, root, qid, -1, t0, t_route);

  std::latch latch(static_cast<std::ptrdiff_t>(targets.size()));
  for (const uint32_t k : targets) {
    ShardScratch* s = &sh->scratch[client][k];
    const uint64_t span = log.NextId();
    s->submitted = Clock::now();
    sh->router->shard(k).lane().SubmitTask(
        [sh, client, k, qid, root, span, &q, s, &latch] {
          ReplayShard(sh, client, k, qid, root, span, q, s);
          latch.count_down();
        });
  }
  latch.wait();

  Status status = Status::OK();
  Region region;
  Answer got;
  Clock::time_point last = t_route;
  for (const uint32_t k : targets) {
    ShardScratch& s = sh->scratch[client][k];
    log.Add(buf, Layer::kQueue, root, qid, static_cast<int32_t>(k),
            s.submitted, s.started);
    last = std::max(last, s.finished);
    if (!s.status.ok() && status.ok()) status = s.status;
    region.Append(s.region);
    got.cells += s.stats.answer_cells;
    m->layers.Add(s.counts);
  }
  got.pieces = region.NumPieces();
  const auto t_end = Clock::now();
  log.Add(buf, Layer::kGather, root, qid, -1, last, t_end);
  log.Add(buf, Layer::kQuery, 0, qid, -1, t0, t_end, root);
  *out = got;
  return status;
}

void ClientLoop(Shared* sh, size_t client, Mode mode,
                Clock::time_point deadline, size_t max_ops, Measured* m) {
  ValueQueryResult result;
  RouterQueryProfile profile;
  while (Clock::now() < deadline) {
    const size_t i = sh->next_op.fetch_add(1);
    if (i >= max_ops) break;
    const Op& op = (*sh->ops)[i % sh->ops->size()];
    if (op.kind == OpKind::kUpdate) {
      DoUpdate(sh, BatchStream::kMeasured, op.arg, /*checkpoint=*/true, m);
      continue;
    }
    const ValueInterval& q = (*sh->pool)[op.arg];
    ++m->attempted;
    const auto t0 = Clock::now();
    sh->gate.LockShared();
    const auto t1 = Clock::now();
    const uint32_t version = sh->version;
    Answer got;
    Status s;
    switch (mode) {
      case Mode::kPlain:
        s = sh->router->ValueQuery(q, &result);
        got = {result.stats.answer_cells, result.region.NumPieces()};
        break;
      case Mode::kProfiled: {
        s = sh->router->ValueQuery(q, &result, &profile);
        got = {result.stats.answer_cells, result.region.NumPieces()};
        if (s.ok()) {
          double slowest = 0.0;
          for (const QueryStats& ps : profile.per_shard) {
            slowest = std::max(slowest, ps.wall_seconds);
          }
          m->touched += profile.shards_touched;
          m->skipped += profile.shards_skipped;
          m->gather_ms.push_back((result.stats.wall_seconds - slowest) * 1e3);
        }
        break;
      }
      case Mode::kTraced:
        s = ReplayQuery(sh, client, q, &got, m);
        break;
      case Mode::kWarmUp:
        s = sh->router->ValueQueryStats(q, &result.stats);
        break;
    }
    sh->gate.UnlockShared();
    const auto t2 = Clock::now();
    if (!s.ok()) {
      m->Fail(s);
      continue;
    }
    if (mode == Mode::kWarmUp) continue;
    m->query_ms.push_back(Ms(t0, t2));
    m->query_gate_ms.push_back(Ms(t0, t1));
    m->records.push_back({op.arg, version, got});
  }
}

struct PhaseResult {
  Measured m;
  double wall_s = 0.0;
  double cpu_s = 0.0;       // process CPU time over the phase
  double steal_frac = 0.0;  // machine-wide stolen share over the phase
};

/// Runs kClients closed-loop clients for `seconds`, or until `max_ops`
/// operations of the stream have been taken.
PhaseResult RunPhase(Shared* sh, Mode mode, double seconds,
                     size_t max_ops = SIZE_MAX) {
  std::vector<Measured> per_client(kClients);
  const CpuTicks ticks0 = ReadCpuTicks();
  const double cpu0 = CpuSeconds();
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(ClientLoop, sh, c, mode, deadline, max_ops,
                         &per_client[c]);
  }
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.wall_s = Sec(t0, Clock::now());
  out.cpu_s = CpuSeconds() - cpu0;
  out.steal_frac = StealFrac(ticks0, ReadCpuTicks());
  for (Measured& m : per_client) out.m.Merge(std::move(m));
  return out;
}

// ---------------------------------------------------------------------------
// Set-up, recovery and layer microbenchmarks

struct SetupTimes {
  std::vector<double> build_s, save_s, open_s, total_s;
};

ShardRouter::OpenOptions RouterOpenOptions(const WorkloadSpec& spec,
                                           RouterRecoveryReport* report) {
  ShardRouter::OpenOptions o;
  o.pool_pages = spec.pool_pages_per_shard;
  o.wal_mode = WalMode::kFsyncOnCommit;
  o.recovery_report = report;
  return o;
}

/// Build + Save + Open, kSetupReps times; returns the last router.
StatusOr<std::unique_ptr<ShardRouter>> SetUp(const Field& terrain,
                                             const WorkloadSpec& spec,
                                             const std::string& prefix,
                                             SetupTimes* times) {
  std::unique_ptr<ShardRouter> opened;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    opened.reset();
    ShardRouterOptions o;
    o.shards = kShards;
    o.db.method = IndexMethod::kIHilbert;
    o.db.pool_pages = 4096;  // the build itself runs resident everywhere
    const auto t0 = Clock::now();
    StatusOr<std::unique_ptr<ShardRouter>> built = ShardRouter::Build(terrain, o);
    if (!built.ok()) return built.status();
    const auto t1 = Clock::now();
    FIELDDB_RETURN_IF_ERROR((*built)->Save(prefix));
    FIELDDB_RETURN_IF_ERROR((*built)->Close());
    built->reset();
    const auto t2 = Clock::now();
    StatusOr<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Open(prefix, RouterOpenOptions(spec, nullptr));
    if (!router.ok()) return router.status();
    const auto t3 = Clock::now();
    times->build_s.push_back(Sec(t0, t1));
    times->save_s.push_back(Sec(t1, t2));
    times->open_s.push_back(Sec(t2, t3));
    times->total_s.push_back(Sec(t0, t3));
    opened = std::move(*router);
  }
  return opened;
}

double DiskBytesPerCell(const std::string& prefix, uint64_t cells) {
  namespace fs = std::filesystem;
  std::error_code ec;
  uint64_t bytes = fs::file_size(prefix + ".router", ec);
  for (size_t k = 0; k < kShards; ++k) {
    bytes += fs::file_size(ShardFile(prefix, k, ".pages"), ec);
    bytes += fs::file_size(ShardFile(prefix, k, ".meta"), ec);
  }
  return Ratio(static_cast<double>(bytes), static_cast<double>(cells));
}

double RssMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0.0;
  unsigned long long size = 0, resident = 0;
  const int n = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0.0;
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

/// DiskPageFile::ReadBatch (with checksum verification) over every page
/// of shard 0's saved file, in readahead-sized batches.
StatusOr<double> ReadUsPerPage(const std::string& prefix) {
  StatusOr<std::unique_ptr<DiskPageFile>> file =
      DiskPageFile::Open(ShardFile(prefix, 0, ".pages"), kDefaultPageSize, 0);
  if (!file.ok()) return file.status();
  constexpr size_t kBatch = BufferPool::kDefaultReadaheadPages;
  std::vector<Page> pages(kBatch);
  std::vector<Status> statuses(kBatch);
  std::vector<PageId> ids(kBatch);
  const uint64_t n = (*file)->NumPages();
  uint64_t read = 0;
  const auto t0 = Clock::now();
  while (Sec(t0, Clock::now()) < 0.25) {
    for (uint64_t p = 0; p < n; p += kBatch) {
      const size_t count = static_cast<size_t>(std::min<uint64_t>(kBatch, n - p));
      for (size_t i = 0; i < count; ++i) ids[i] = p + i;
      FIELDDB_RETURN_IF_ERROR(
          (*file)->ReadBatch(ids.data(), count, pages.data(), statuses.data()));
      read += count;
    }
  }
  return Ratio(Sec(t0, Clock::now()) * 1e6, static_cast<double>(read));
}

double CrcUsPerPage(uint64_t seed) {
  std::vector<uint8_t> page(kDefaultPageSize);
  Rng rng(seed);
  for (uint8_t& b : page) b = static_cast<uint8_t>(rng.NextU64());
  uint32_t sink = 0;
  uint64_t pages = 0;
  const auto t0 = Clock::now();
  while (Sec(t0, Clock::now()) < 0.1) {
    for (int i = 0; i < 256; ++i) {
      page[0] = static_cast<uint8_t>(sink);
      sink ^= Crc32c(page.data(), page.size());
    }
    pages += 256;
  }
  const double us = Sec(t0, Clock::now()) * 1e6;
  // Keeps the checksums observable so the loop cannot be dropped.
  if (sink == 0x5eed) std::fprintf(stderr, "crc sink %u\n", sink);
  return Ratio(us, static_cast<double>(pages));
}

/// Group commits of kBatchCells frames on a scratch log in the
/// benchmark's WAL mode.
Status ScratchWal(const std::string& dir, const BatchMaker& maker,
                  double* commit_ms, double* bytes_per_update) {
  const std::string path = dir + "/scratch.wal";
  std::remove(path.c_str());
  StatusOr<std::unique_ptr<WriteAheadLog>> wal =
      WriteAheadLog::Open(path, WalMode::kFsyncOnCommit, 1);
  if (!wal.ok()) return wal.status();
  std::vector<double> ms;
  uint64_t updates = 0;
  for (uint32_t b = 0; b < 64; ++b) {
    const auto batch = maker.Make(BatchStream::kTail, b);
    const auto t0 = Clock::now();
    for (const auto& u : batch) {
      FIELDDB_RETURN_IF_ERROR((*wal)->AppendUpdate(u.id, u.values));
    }
    FIELDDB_RETURN_IF_ERROR((*wal)->Commit());
    ms.push_back(Ms(t0, Clock::now()));
    updates += batch.size();
  }
  *bytes_per_update = Ratio(static_cast<double>((*wal)->size_bytes()),
                            static_cast<double>(updates));
  *commit_ms = Median(ms);
  FIELDDB_RETURN_IF_ERROR((*wal)->Close());
  std::remove(path.c_str());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string j = "{\"correct\": ";
  j += correct ? "true" : "false";
  j += ", \"attempted\": " + std::to_string(attempted);
  j += ", \"failed\": " + std::to_string(failed);
  j += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) j += ", ";
    JsonAppendString(&j, metrics[i].name);
    j += ": {\"value\": " + FormatNumber(metrics[i].value) + ", \"unit\": ";
    JsonAppendString(&j, metrics[i].unit);
    j += "}";
  }
  j += "}}";
  std::printf("%s\n", j.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string dir;
  std::string spans;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a->workload = val;
    } else if (key == "--seed") {
      a->seed = std::strtoull(val.c_str(), &end, 10);
      if (end == val.c_str() || *end != '\0') return false;
      have_seed = true;
    } else if (key == "--seconds") {
      a->seconds = std::strtod(val.c_str(), &end);
      if (end == val.c_str() || *end != '\0' || !(a->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (val != "0" && val != "1") return false;
      a->trace = val == "1" ? 1 : 0;
    } else if (key == "--dir") {
      a->dir = val;
    } else if (key == "--spans") {
      a->spans = val;
    } else {
      return false;
    }
  }
  return have_seed && !a->workload.empty() && a->seconds > 0 &&
         a->trace >= 0 && !a->dir.empty();
}

/// A failed check: reported on stderr, and the run is not correct.
struct Checks {
  bool ok = true;
  void Require(bool cond, const std::string& what) {
    if (cond) return;
    ok = false;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

int Run(const Args& args) {
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s' (known: %s)\n",
                 args.workload.c_str(), WorkloadNames().c_str());
    return 2;
  }
  const auto fail = [](const Status& s) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  };
  Checks checks;

  Progress("generating the terrain");
  StatusOr<GridField> terrain = MakeRoseburgLikeTerrain();
  if (!terrain.ok()) return fail(terrain.status());
  const ValueInterval range = terrain->ValueRange();
  const std::string selftest = SelfTest(*spec, *terrain, range, args.seed);
  checks.Require(selftest.empty(), "seed determinism: " + selftest);

  const std::vector<ValueInterval> pool = MakeQueryPool(*spec, range, args.seed);
  const std::vector<Op> ops =
      MakeOpStream(*spec, pool.size(), args.seed, kStreamLength);
  const BatchMaker maker(*terrain, range, args.seed);

  std::error_code ec;
  std::filesystem::create_directories(args.dir, ec);
  if (ec) return fail(Status::IOError("cannot create " + args.dir));
  const std::string prefix = args.dir + "/terrain";

  // --- set-up (timed) ---
  Progress("set-up");
  SetupTimes setup;
  StatusOr<std::unique_ptr<ShardRouter>> router =
      SetUp(*terrain, *spec, prefix, &setup);
  if (!router.ok()) return fail(router.status());
  const uint64_t num_cells = (*router)->num_cells();
  const double disk_bytes_per_cell = DiskBytesPerCell(prefix, num_cells);
  uint64_t store_pages = 0;
  bool resident = true;  // every shard's store fits in its pool
  for (size_t k = 0; k < (*router)->num_shards(); ++k) {
    const uint64_t pages =
        (*router)->shard(k).db().index().cell_store().num_pages();
    store_pages += pages;
    resident = resident && pages <= spec->pool_pages_per_shard;
  }

  Shared sh;
  sh.router = std::move(*router);
  sh.prefix = prefix;
  sh.pool = &pool;
  sh.ops = &ops;
  sh.maker = &maker;
  Measured all;  // every operation issued, for attempted/failed

  // --- warm-up of resident pools: one stats-only pass over the pool ---
  if (resident) {
    Progress("warm-up");
    std::vector<Op> warm(pool.size());
    for (uint32_t i = 0; i < pool.size(); ++i) warm[i] = {OpKind::kQuery, i};
    sh.ops = &warm;
    const Measured w =
        RunPhase(&sh, Mode::kWarmUp, 600.0, warm.size()).m;
    checks.Require(w.failed == 0, "warm-up failed: " + w.first_error);
    sh.ops = &ops;
    sh.next_op = 0;
  }
  // Memory of the opened (and, if resident, warmed) router, before the
  // oracle exists and before query results churn the heap.
  const double rss_mb = RssMb();

  // --- the oracle and the reference answers (not part of set-up) ---
  Progress("oracle + reference answers");
  FieldDatabaseOptions oracle_options;
  oracle_options.method = IndexMethod::kLinearScan;
  oracle_options.planner_mode = PlannerMode::kForceScan;
  oracle_options.pool_pages = 8192;
  oracle_options.build_spatial_index = false;
  StatusOr<std::unique_ptr<FieldDatabase>> oracle =
      FieldDatabase::Build(*terrain, oracle_options);
  if (!oracle.ok()) return fail(oracle.status());
  std::vector<Answer> reference;
  {
    const Status s = OracleAnswers(**oracle, pool, &reference);
    if (!s.ok()) return fail(s);
  }

  // --- the measured phase(s) ---
  Progress("measured phase");
  Counter* admission = MetricsRegistry::Default().GetCounter(
      "router.admission_waits");
  const uint64_t admission_before = admission->value();
  PhaseResult main_phase;
  PhaseResult traced_phase;
  TraceSummary trace;
  if (args.trace == 0) {
    main_phase = RunPhase(&sh, Mode::kPlain, args.seconds);
  } else {
    main_phase = RunPhase(&sh, Mode::kProfiled, args.seconds / 2);
    sh.spans = std::make_unique<SpanLog>(kClients * (kShards + 1));
    sh.scratch.assign(kClients, std::vector<ShardScratch>(kShards));
    const auto origin = Clock::now();
    traced_phase = RunPhase(&sh, Mode::kTraced, args.seconds / 2);
    const std::vector<Span> spans = sh.spans->Merge();
    trace = Summarize(spans);
    const std::string path =
        args.spans.empty() ? args.dir + "/spans.jsonl" : args.spans;
    checks.Require(WriteSpans(path, spans, origin), "cannot write " + path);
  }
  const uint64_t admission_waits = admission->value() - admission_before;
  const size_t measured_batches = sh.acked.size();

  // --- layer microbenchmarks (traced run only) ---
  Progress("layer microbenchmarks");
  double read_us = 0.0, crc_us = 0.0, wal_commit_ms = 0.0, wal_bytes = 0.0;
  if (args.trace == 1) {
    StatusOr<double> r = ReadUsPerPage(prefix);
    if (!r.ok()) return fail(r.status());
    read_us = *r;
    crc_us = CrcUsPerPage(args.seed);
    const Status s = ScratchWal(args.dir, maker, &wal_commit_ms, &wal_bytes);
    if (!s.ok()) return fail(s);
  }

  // --- epilogue: final checkpoint, a seeded WAL tail, crash, recovery ---
  Progress("checkpoint + WAL tail");
  Checkpoint(&sh);
  checks.Require(sh.checkpoint_status.ok(),
                 "checkpoint: " + sh.checkpoint_status.ToString());
  Measured tail;
  const auto tail_t0 = Clock::now();
  for (uint32_t b = 0; b < kTailBatches; ++b) {
    DoUpdate(&sh, BatchStream::kTail, b, /*checkpoint=*/false, &tail);
  }
  const double tail_s = Sec(tail_t0, Clock::now());

  // Expected answers at every version, and the final oracle state.
  all.Merge(Measured(main_phase.m));
  all.Merge(Measured(traced_phase.m));
  std::vector<QueryRecord> records = std::move(all.records);
  std::stable_sort(records.begin(), records.end(),
                   [](const QueryRecord& a, const QueryRecord& b) {
                     return a.version < b.version;
                   });
  Progress("answer verification");
  AnswerTracker tracker(*terrain, pool, reference);
  uint64_t wrong = 0;
  size_t applied = 0;
  const auto apply_next = [&]() -> Status {
    const auto [stream, index] = sh.acked[applied++];
    const auto batch = maker.Make(stream, index);
    FIELDDB_RETURN_IF_ERROR(tracker.Apply(batch));
    return (*oracle)->UpdateCellValuesBatch(batch);
  };
  for (const QueryRecord& r : records) {
    while (applied < r.version) {
      const Status s = apply_next();
      if (!s.ok()) return fail(s);
    }
    if (!(r.got == tracker.expected()[r.query])) ++wrong;
  }
  while (applied < sh.acked.size()) {
    const Status s = apply_next();
    if (!s.ok()) return fail(s);
  }
  checks.Require(wrong == 0, std::to_string(wrong) + " wrong answers");

  // Answers checked against tracked (updated) expectations: the tracked
  // answers must agree with the oracle's final state.
  if (measured_batches > 0) {
    std::vector<Answer> oracle_final;
    const Status s = OracleAnswers(**oracle, pool, &oracle_final);
    if (!s.ok()) return fail(s);
    checks.Require(oracle_final == tracker.expected(),
                   "tracked answers disagree with the oracle");
  }

  // Durability probes: some pool queries, plus narrow bands around the
  // new values of tail-updated sensor cells (a lost update changes them).
  std::vector<ValueInterval> probes;
  for (size_t i = 0; i < kPoolProbes; ++i) {  // narrowest band width
    probes.push_back(pool[i * kQueriesPerWidth / kPoolProbes]);
  }
  {
    const double w = 0.005 * (range.max - range.min);
    const auto last_tail = maker.Make(BatchStream::kTail, kTailBatches - 1);
    for (size_t i = 0; i < kSensorProbes && i < last_tail.size(); ++i) {
      const double v = last_tail[i].values[0];
      probes.push_back(ValueInterval{v - w / 2, v + w / 2});
    }
  }
  std::vector<Answer> probe_expected;
  {
    const Status s = OracleAnswers(**oracle, probes, &probe_expected);
    if (!s.ok()) return fail(s);
  }
  const auto check_probes = [&](const char* when) {
    ValueQueryResult r;
    for (size_t i = 0; i < probes.size(); ++i) {
      ++all.attempted;
      const Status s = sh.router->ValueQuery(probes[i], &r);
      const Answer got{r.stats.answer_cells, r.region.NumPieces()};
      if (!s.ok() || !(got == probe_expected[i])) {
        ++all.failed;
        checks.Require(false, std::string("probe ") + std::to_string(i) +
                                  " differs from the oracle " + when);
      }
    }
  };
  check_probes("before the crash");
  Progress("crash + recovery");

  // Every frame acknowledged since the final checkpoint is replayed.
  const uint64_t tail_frames =
      static_cast<uint64_t>(tail.commit_ms.size()) * kBatchCells;
  std::vector<double> recovery_s, recovery_cpu_s, wal_scan_s;
  uint64_t frames_replayed = 0;
  for (size_t rep = 0; rep < kRecoveryReps; ++rep) {
    const Status crash = sh.router->SimulateCrashForTest();
    if (!crash.ok()) return fail(crash);
    sh.router.reset();
    const auto s0 = Clock::now();
    for (size_t k = 0; k < kShards; ++k) {
      StatusOr<WalScanResult> scan =
          WriteAheadLog::Scan(ShardFile(prefix, k, ".wal"));
      if (!scan.ok()) return fail(scan.status());
    }
    wal_scan_s.push_back(Sec(s0, Clock::now()));
    RouterRecoveryReport report;
    const double cpu0 = CpuSeconds();
    const auto t0 = Clock::now();
    StatusOr<std::unique_ptr<ShardRouter>> reopened =
        ShardRouter::Open(prefix, RouterOpenOptions(*spec, &report));
    if (!reopened.ok()) return fail(reopened.status());
    recovery_s.push_back(Sec(t0, Clock::now()));
    recovery_cpu_s.push_back(CpuSeconds() - cpu0);
    sh.router = std::move(*reopened);
    frames_replayed = report.frames_replayed;
    checks.Require(report.frames_replayed == tail_frames,
                   "recovery replayed " +
                       std::to_string(report.frames_replayed) +
                       " frames, expected " + std::to_string(tail_frames));
    check_probes("after crash + Open");
  }
  {
    const Status s = sh.router->Close();
    if (!s.ok()) return fail(s);
  }

  // --- results ---
  Progress("results");
  const Measured& mm = main_phase.m;
  const Measured& tm = traced_phase.m;
  // Update-path samples: the measured phase(s) on the update workload,
  // the single-client WAL tail on the read-only ones.
  const bool updates_measured = measured_batches > 0;
  Measured updates = updates_measured ? Measured(mm) : Measured(tail);
  if (updates_measured) updates.Merge(Measured(tm));
  const double update_wall_s =
      updates_measured ? main_phase.wall_s + traced_phase.wall_s : tail_s;
  all.Merge(Measured(tail));
  checks.Require(sh.checkpoint_status.ok(),
                 "checkpoint: " + sh.checkpoint_status.ToString());
  checks.Require(all.failed == 0,
                 std::to_string(all.failed) + " failed operations; first: " +
                     all.first_error);

  const double main_ops =
      static_cast<double>(mm.query_ms.size() + mm.commit_ms.size());
  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"op_cpu_ms", Ratio(main_phase.cpu_s * 1e3, main_ops), "ms"},
        {"recovery_cpu_s", Median(recovery_cpu_s), "s"},
        {"setup_s", Median(setup.total_s), "s"},
        {"disk_bytes_per_cell", disk_bytes_per_cell, "B"},
        {"rss_mb", rss_mb, "MB"},
    };
  } else {
    const LayerCounts& lc = tm.layers;
    const double tq = static_cast<double>(trace.queries);
    const double coverage = trace.coverage();
    checks.Require(updates.commit_ms.size() >= kMinCommitSamples,
                   "too few commits for p90: " +
                       std::to_string(updates.commit_ms.size()));
    checks.Require(coverage >= kMinCoverage,
                   "layer coverage " + FormatNumber(coverage) + " below " +
                       FormatNumber(kMinCoverage));
    std::vector<double> gate_ms = mm.query_gate_ms;
    gate_ms.insert(gate_ms.end(), tm.query_gate_ms.begin(),
                   tm.query_gate_ms.end());
    const auto per_query_ms = [&](Layer l) {
      return Ratio(trace.self(l) * 1e3, tq);
    };
    metrics = {
        {"router.shards_touched_per_query",
         Ratio(static_cast<double>(mm.touched),
               static_cast<double>(mm.query_ms.size())), "count"},
        {"router.shards_skipped_frac",
         Ratio(static_cast<double>(mm.skipped),
               static_cast<double>(mm.touched + mm.skipped)), "frac"},
        {"router.gather_ms", Mean(mm.gather_ms), "ms"},
        {"router.admission_waits", static_cast<double>(admission_waits),
         "count"},
        {"router.lane_queue_ms", per_query_ms(Layer::kQueue), "ms"},
        {"plan.us_per_query", Ratio(trace.self(Layer::kPlan) * 1e6, tq), "us"},
        {"plan.indexed_frac",
         Ratio(static_cast<double>(lc.indexed_plans),
               static_cast<double>(lc.shard_queries)), "frac"},
        {"index.filter_ms", per_query_ms(Layer::kFilter), "ms"},
        {"index.candidates_per_query",
         Ratio(static_cast<double>(lc.candidates), tq), "count"},
        {"index.runs_per_query", Ratio(static_cast<double>(lc.runs), tq),
         "count"},
        {"index.useful_frac",
         Ratio(static_cast<double>(lc.answers),
               static_cast<double>(lc.candidates)), "frac"},
        {"storage.fetch_ms", per_query_ms(Layer::kFetch), "ms"},
        {"storage.physical_reads_per_query",
         Ratio(static_cast<double>(lc.io.physical_reads), tq), "count"},
        {"storage.logical_reads_per_query",
         Ratio(static_cast<double>(lc.io.logical_reads), tq), "count"},
        {"storage.hit_frac",
         1.0 - Ratio(static_cast<double>(lc.io.physical_reads),
                     static_cast<double>(lc.io.logical_reads)), "frac"},
        {"storage.random_read_frac",
         Ratio(static_cast<double>(lc.io.random_reads()),
               static_cast<double>(lc.io.physical_reads)), "frac"},
        {"storage.useful_page_frac",
         Ratio(static_cast<double>(lc.useful_pages),
               static_cast<double>(lc.fetched_pages)), "frac"},
        {"storage.read_us_per_page", read_us, "us"},
        {"storage.crc_us_per_page", crc_us, "us"},
        {"field.estimate_ms", per_query_ms(Layer::kEstimate), "ms"},
        {"field.answer_cells_per_query",
         Ratio(static_cast<double>(lc.answers), tq), "count"},
        {"wal.commit_ms", wal_commit_ms, "ms"},
        {"wal.bytes_per_update", wal_bytes, "B"},
        {"update.ups",
         Ratio(static_cast<double>(updates.commit_ms.size()), update_wall_s),
         "batch/s"},
        {"update.commit_p50_ms", Percentile(updates.commit_ms, 50.0), "ms"},
        {"update.commit_p90_ms", Percentile(updates.commit_ms, kCommitTail),
         "ms"},
        {"update.batch_ms", Mean(updates.update_batch_ms), "ms"},
        {"update.gate_wait_ms", Mean(updates.update_gate_ms), "ms"},
        {"query.gate_wait_ms", Mean(gate_ms), "ms"},
        {"checkpoint.save_s", Median(sh.checkpoint_s), "s"},
        {"checkpoint.count", static_cast<double>(sh.checkpoint_s.size()),
         "count"},
        {"recovery.wal_scan_s", Median(wal_scan_s), "s"},
        {"recovery.frames_replayed", static_cast<double>(frames_replayed),
         "count"},
        {"setup.build_s", Median(setup.build_s), "s"},
        {"setup.save_s", Median(setup.save_s), "s"},
        {"setup.open_s", Median(setup.open_s), "s"},
        {"wall.query_qps",
         Ratio(static_cast<double>(mm.query_ms.size()), main_phase.wall_s),
         "1/s"},
        {"wall.query_p50_ms", Percentile(mm.query_ms, 50.0), "ms"},
        {"wall.query_p95_ms", Percentile(mm.query_ms, kQueryTail), "ms"},
        {"wall.recovery_s", Median(recovery_s), "s"},
        {"host.steal_frac", main_phase.steal_frac, "frac"},
        {"trace.coverage", coverage, "frac"},
        {"trace.overhead_frac",
         Ratio(Median(tm.query_ms), Median(mm.query_ms)) - 1.0, "frac"},
    };
  }

  // Run description, one line before the result.
  {
    std::string j = "{\"run\": {\"workload\": ";
    JsonAppendString(&j, spec->name);
    j += ", \"seed\": " + std::to_string(args.seed);
    j += ", \"trace\": " + std::to_string(args.trace);
    j += ", \"clients\": " + std::to_string(kClients);
    j += ", \"shards\": " + std::to_string(kShards);
    j += ", \"cells\": " + std::to_string(num_cells);
    j += ", \"store_pages\": " + std::to_string(store_pages);
    j += ", \"pool_frames\": " +
         std::to_string(spec->pool_pages_per_shard * kShards);
    j += ", \"flush_policy\": ";
    JsonAppendString(&j, "wal=fsync_on_commit, group commit per 64-cell "
                         "batch; checkpoint every " +
                             std::to_string(kCheckpointEvery) +
                             " measured batches and once after the measured "
                             "phase");
    j += ", \"async_io\": ";
    JsonAppendString(&j, AsyncIoBackend::Create()->name());
    j += ", \"simd\": ";
    JsonAppendString(&j, simd::KernelLevelName(simd::ActiveKernelLevel()));
    j += ", \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency());
    j += ", \"queries\": " + std::to_string(mm.query_ms.size());
    j += ", \"commits\": " + std::to_string(updates.commit_ms.size());
    j += ", \"checkpoints\": " + std::to_string(sh.checkpoint_s.size());
    j += ", \"steal_frac\": " + FormatNumber(main_phase.steal_frac);
    j += ", \"failed_ops_frac\": " +
         FormatNumber(Ratio(static_cast<double>(all.failed),
                            static_cast<double>(all.attempted)));
    j += "}}";
    std::printf("%s\n", j.c_str());
  }
  PrintResult(checks.ok, all.attempted, all.failed, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> "
                 "--trace <0|1> --dir <scratch dir> [--spans <file>]\n",
                 perfbench::WorkloadNames().c_str());
    return 2;
  }
  return perfbench::Run(args);
}
