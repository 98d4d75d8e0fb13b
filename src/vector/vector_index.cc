#include "vector/vector_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>

#include "core/catalog.h"
#include "core/ext_sort.h"
#include "curve/hilbert.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

constexpr CatalogKind kVectorCatalog{
    "fielddb-vector-meta-v1", static_cast<int>(VectorIndexMethod::kIHilbert)};

struct VectorMetaData {
  StoreHeader header;
  SubfieldTable<2> subfields;
};

StatusOr<VectorMetaData> ReadVectorMeta(const std::string& path) {
  CatalogReader r(path);
  FIELDDB_RETURN_IF_ERROR(r.Load(kVectorCatalog.magic));
  VectorMetaData meta;
  while (r.NextKey()) {
    if (ReadHeaderKey(&r, kVectorCatalog, &meta.header) ||
        ReadSubfieldKey(&r, "sfv", &meta.subfields)) {
      continue;
    }
    r.FailUnknownKey();
  }
  CheckHeader(&r, kVectorCatalog, meta.header);
  r.Check(meta.subfields.declared == meta.subfields.rows.size(), "subfields");
  CheckSubfieldRows(&r, "sfv", meta.subfields.rows, meta.header.num_cells,
                    meta.header.method ==
                        static_cast<int>(VectorIndexMethod::kIHilbert));
  FIELDDB_RETURN_IF_ERROR(r.status());
  return meta;
}

}  // namespace

const char* VectorIndexMethodName(VectorIndexMethod method) {
  switch (method) {
    case VectorIndexMethod::kLinearScan:
      return "V-LinearScan";
    case VectorIndexMethod::kIHilbert:
      return "V-I-Hilbert";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Build(
    const VectorGridField& field, const Options& options) {
  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  db->method_ = options.method;
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FieldEngine::BuildConfig config;
  config.page_size = options.page_size;
  config.pool_pages = options.pool_pages;
  config.page_file_factory = options.page_file_factory;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(config));
  BufferPool* const pool = db->engine_.pool();

  // Hilbert-order the cells (also for LinearScan — the scan is
  // order-insensitive and sharing the layout isolates the index effect).
  // One sorter serves both the in-RAM and the bounded-memory builds;
  // its (key, insertion-seq) tie-break equals the (key, id) order, so
  // both paths emit cells identically.
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, options.curve_order);
  const CellId n = field.NumCells();
  const Rect2 domain = field.Domain();
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  for (CellId id = 0; id < n; ++id) {
    const Point2 c = field.ComponentCell(0, id).Centroid();
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        curve->EncodeUnit((c.x - domain.lo.x) / domain.Width(),
                          (c.y - domain.lo.y) / domain.Height()),
        id));
  }

  db->pos_of_.assign(n, 0);
  db->zones_.Reserve(n);
  RecordStoreAppender<VectorCellRecord> appender(pool);
  SubfieldStreamBuilderOf<2> costing(field.ValueRangeBox(), options.cost);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        const VectorCellRecord record =
            VectorCellRecord::FromField(field, id);
        db->pos_of_[id] = appender.size();
        FIELDDB_RETURN_IF_ERROR(appender.Append(record));
        const Box<2> box = record.ValueBox();
        db->zones_.Append(box);
        costing.Add(box);
        return Status::OK();
      }));
  StatusOr<RecordStore<VectorCellRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_ = std::make_unique<RecordStore<VectorCellRecord>>(
      std::move(store).value());
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();

  if (options.method == VectorIndexMethod::kIHilbert) {
    db->subfields_ = costing.Finish();
    StatusOr<RStarTree<2>> tree = RStarTree<2>::BulkLoad(
        pool, SubfieldEntries(db->subfields_), options.rstar);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());
  }

  if (options.wal_mode != WalMode::kOff) {
    FIELDDB_RETURN_IF_ERROR(
        db->engine_.ArmWal(options.wal_path, options.wal_mode));
  }
  if (!options.event_log_path.empty()) {
    FIELDDB_RETURN_IF_ERROR(db->engine_.AttachEventLog(
        options.event_log_path, options.slow_query_threshold_ms));
    if (options.wal_mode != WalMode::kOff) {
      db->engine_.LogEvent(EventLog::Event("wal_mode_transition")
                               .Add("from", WalModeName(WalMode::kOff))
                               .Add("to", WalModeName(options.wal_mode))
                               .Add("at", "build"));
    }
  }
  pool->ResetStats();
  return db;
}

Status VectorFieldDatabase::Save(const std::string& prefix) {
  return SaveImpl(prefix, SnapshotCrashPoint::kNone);
}

Status VectorFieldDatabase::SaveImpl(const std::string& prefix,
                                     SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        CatalogWriter w = BeginFieldCatalog(
            kVectorCatalog, {.page_size = engine_.file()->page_size(),
                             .epoch = new_epoch,
                             .method = static_cast<int>(method_),
                             .num_cells = store_->size(),
                             .store_first_page = store_->first_page()});
        if (tree_ != nullptr) w.Line("tree", tree_->meta());
        WriteSubfields<2>(&w, "sfv", subfields_);
        return w.Commit(meta_tmp_path);
      });
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<VectorFieldDatabase>> VectorFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string meta_path = prefix + ".meta";
  TryCompleteInterruptedSave(prefix, kVectorCatalog.magic);
  StatusOr<VectorMetaData> meta = ReadVectorMeta(meta_path);
  if (!meta.ok()) return meta.status();
  const StoreHeader& header = meta->header;

  auto db = std::unique_ptr<VectorFieldDatabase>(new VectorFieldDatabase());
  db->method_ = static_cast<VectorIndexMethod>(header.method);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForOpen(
      prefix, header.page_size, header.epoch, options.pool_pages));
  BufferPool* const pool = db->engine_.pool();

  const uint64_t num_pages = db->engine_.file()->NumPages();
  FIELDDB_RETURN_IF_ERROR(CheckStorePages(
      meta_path, "store_first_page", header.store_first_page,
      header.num_cells, header.page_size, sizeof(VectorCellRecord), num_pages));
  FIELDDB_RETURN_IF_ERROR(CheckTree(meta_path, "tree", header.tree,
                                    db->method_ == VectorIndexMethod::kIHilbert,
                                    num_pages));

  StatusOr<RecordStore<VectorCellRecord>> store =
      RecordStore<VectorCellRecord>::Attach(pool, header.store_first_page,
                                            header.num_cells);
  if (!store.ok()) return store.status();
  db->store_ = std::make_unique<RecordStore<VectorCellRecord>>(
      std::move(store).value());
  db->subfields_ = std::move(meta->subfields.rows);
  if (db->method_ == VectorIndexMethod::kIHilbert) {
    StatusOr<RStarTree<2>> tree = RStarTree<2>::Attach(pool, *header.tree);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());
  }

  // One store pass rebuilds both in-RAM sidecars: the cell-id ->
  // position map and the 2-D zone map the planner probes.
  const uint64_t n = header.num_cells;
  db->pos_of_.assign(n, ~uint64_t{0});
  db->zones_.Reserve(n);
  FIELDDB_RETURN_IF_ERROR(db->store_->Scan(
      0, n, [&](uint64_t pos, const VectorCellRecord& rec) {
        // A record no Build wrote ends the scan (the id check fails).
        if (rec.num_vertices > 4) return false;
        if (rec.id < n) db->pos_of_[rec.id] = pos;
        db->zones_.Append(rec.ValueBox());
        return true;
      }));
  for (const uint64_t pos : db->pos_of_) {
    if (pos == ~uint64_t{0}) {
      return Status::Corruption("vector store is missing cell ids");
    }
  }

  // Recovery: a frame carries u followed by v; logical redo through the
  // same apply path updates took maintains subfield boxes, tree entries
  // and the zone map.
  EngineRecoveryReport report;
  VectorFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.RecoverFromWal(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        if (frame.values.empty() || frame.values.size() % 2 != 0) {
          return Status::Corruption(
              "vector WAL frame must carry an even sample count");
        }
        const size_t nv = frame.values.size() / 2;
        const std::vector<double> u(frame.values.begin(),
                                    frame.values.begin() + nv);
        const std::vector<double> v(frame.values.begin() + nv,
                                    frame.values.end());
        return raw->ApplyCellValues(frame.cell_id, u, v);
      },
      [raw, &prefix]() {
        return raw->SaveImpl(prefix, SnapshotCrashPoint::kNone);
      },
      &report));

  if (!options.event_log_path.empty()) {
    FIELDDB_RETURN_IF_ERROR(db->engine_.AttachEventLog(
        options.event_log_path, options.slow_query_threshold_ms));
    db->engine_.LogRecoveryEvent(report, options.wal_mode);
  }

  pool->ResetStats();
  if (options.recovery_report != nullptr) {
    *options.recovery_report = std::move(report);
  }
  return db;
}

Status VectorFieldDatabase::UpdateCellValues(CellId id,
                                             const std::vector<double>& u,
                                             const std::vector<double>& v) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  VectorCellRecord cell;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos_of_[id], &cell));
  if (u.size() != cell.num_vertices || v.size() != cell.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(cell.num_vertices) +
        " values per component, got " + std::to_string(u.size()) + "/" +
        std::to_string(v.size()));
  }
  // Validated above, so only appliable updates reach the log. The frame
  // carries u followed by v.
  if (engine_.wal() != nullptr) {
    std::vector<double> uv;
    uv.reserve(u.size() + v.size());
    uv.insert(uv.end(), u.begin(), u.end());
    uv.insert(uv.end(), v.begin(), v.end());
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, uv));
  }
  return ApplyCellValues(id, u, v);
}

Status VectorFieldDatabase::ApplyCellValues(CellId id,
                                            const std::vector<double>& u,
                                            const std::vector<double>& v) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  const uint64_t pos = pos_of_[id];
  VectorCellRecord cell;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos, &cell));
  if (u.size() != cell.num_vertices || v.size() != cell.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(cell.num_vertices) +
        " values per component, got " + std::to_string(u.size()) + "/" +
        std::to_string(v.size()));
  }
  for (uint32_t i = 0; i < cell.num_vertices; ++i) {
    cell.u[i] = u[i];
    cell.v[i] = v[i];
  }
  FIELDDB_RETURN_IF_ERROR(store_->Put(pos, cell));
  zones_.Set(pos, cell.ValueBox());
  if (tree_ == nullptr) return Status::OK();
  // Keep the containing subfield's value box covering every member.
  return RefreshSubfieldHull(zones_, tree_.get(), &subfields_, pos,
                             SubfieldEntry<2>);
}

PhysicalPlan VectorFieldDatabase::ChoosePlan(
    const VectorBandQuery& query) const {
  return PlanRecordStoreQuery(*store_, zones_, query.AsBox(),
                              tree_ != nullptr,
                              tree_ != nullptr ? tree_->height() : 0,
                              planner_mode());
}

PhysicalPlan VectorFieldDatabase::PlanBandQuery(
    const VectorBandQuery& query) const {
  return ChoosePlan(query);
}

void VectorFieldDatabase::MaybeLogSlowQuery(const VectorBandQuery& query,
                                            const QueryStats& stats,
                                            const PhysicalPlan& plan) const {
  if (engine_.event_log() == nullptr) return;
  const double wall_ms = stats.wall_seconds * 1000.0;
  if (wall_ms < engine_.slow_query_threshold_ms()) return;
  const double observed_disk_ms = DiskModel{}.EstimateMs(
      stats.io.sequential_reads, stats.io.random_reads());
  engine_.LogEvent(EventLog::Event("slow_query")
                       .Add("field_type", "vector")
                       .Add("wall_ms", wall_ms)
                       .Add("threshold_ms", engine_.slow_query_threshold_ms())
                       .Add("query_u_min", query.u.min)
                       .Add("query_u_max", query.u.max)
                       .Add("query_v_min", query.v.min)
                       .Add("query_v_max", query.v.max)
                       .Add("plan", PlanKindName(plan.kind))
                       .Add("reason", plan.reason)
                       .Add("predicted_cost_ms", plan.predicted_cost_ms)
                       .Add("observed_disk_ms", observed_disk_ms)
                       .Add("candidate_cells", stats.candidate_cells)
                       .Add("answer_cells", stats.answer_cells));
}

Status VectorFieldDatabase::BandQuery(const VectorBandQuery& query,
                                      VectorQueryResult* out) {
  if (query.u.IsEmpty() || query.v.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  out->region.pieces.clear();
  out->stats = QueryStats{};
  out->plan = ChoosePlan(query);
  const IoStats io_before = engine_.pool()->stats();
  const auto t0 = std::chrono::steady_clock::now();

  Status inner = Status::OK();
  const auto visit_cell = [&](uint64_t, const VectorCellRecord& cell) {
    StatusOr<size_t> pieces =
        VectorCellIsoband(cell, query, &out->region);
    if (!pieces.ok()) {
      inner = pieces.status();
      return false;
    }
    if (*pieces > 0) {
      ++out->stats.answer_cells;
      out->stats.region_pieces += *pieces;
    }
    return true;
  };

  if (out->plan.kind == PlanKind::kFusedScan) {
    out->stats.candidate_cells = store_->size();
    FIELDDB_RETURN_IF_ERROR(store_->Scan(0, store_->size(), visit_cell));
    FIELDDB_RETURN_IF_ERROR(inner);
  } else {
    std::vector<PosRange> runs;
    FIELDDB_RETURN_IF_ERROR(
        tree_->Search(query.AsBox(), [&](const RTreeEntry<2>& e) {
          runs.push_back(PosRange{e.a, e.b});
          return true;
        }));
    FIELDDB_RETURN_IF_ERROR(store_->ScanCoveredRuns(
        &runs, &out->stats.candidate_cells, visit_cell));
    FIELDDB_RETURN_IF_ERROR(inner);
  }

  out->stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out->stats.io = engine_.pool()->stats() - io_before;
  MaybeLogSlowQuery(query, out->stats, out->plan);
  return Status::OK();
}

StatusOr<WorkloadStats> VectorFieldDatabase::RunWorkload(
    const std::vector<VectorBandQuery>& queries) {
  WorkloadStats ws;
  if (queries.empty()) return ws;
  QueryStats total;
  std::vector<double> wall_ms;
  wall_ms.reserve(queries.size());
  VectorQueryResult result;
  for (const VectorBandQuery& q : queries) {
    FIELDDB_RETURN_IF_ERROR(engine_.pool()->Clear());
    FIELDDB_RETURN_IF_ERROR(BandQuery(q, &result));
    total.Accumulate(result.stats);
    wall_ms.push_back(result.stats.wall_seconds * 1000.0);
  }
  FinalizeWorkloadStats(total, &wall_ms, &ws);
  return ws;
}

}  // namespace fielddb
