#include "volume/volume_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>

#include "core/catalog.h"
#include "core/ext_sort.h"
#include "curve/hilbert.h"
#include "index/subfield_maintenance.h"
#include "volume/tet_band.h"

namespace fielddb {

namespace {

constexpr CatalogKind kVolumeCatalog{
    "fielddb-volume-meta-v1", static_cast<int>(VolumeIndexMethod::kIHilbert)};

struct VolumeMetaData {
  StoreHeader header;
  double voxel_volume = 0.0;
  ValueInterval value_range;
  SubfieldTable<1> subfields;
};

StatusOr<VolumeMetaData> ReadVolumeMeta(const std::string& path) {
  CatalogReader r(path);
  FIELDDB_RETURN_IF_ERROR(r.Load(kVolumeCatalog.magic));
  VolumeMetaData meta;
  while (r.NextKey()) {
    if (ReadHeaderKey(&r, kVolumeCatalog, &meta.header) ||
        ReadSubfieldKey(&r, "sf", &meta.subfields)) {
      continue;
    }
    const std::string_view k = r.key();
    if (k == "voxel_volume") {
      r.Read(&meta.voxel_volume);
    } else if (k == "value_range") {
      r.Read(&meta.value_range.min, &meta.value_range.max);
    } else {
      r.FailUnknownKey();
    }
  }
  CheckHeader(&r, kVolumeCatalog, meta.header);
  r.Check(std::isfinite(meta.voxel_volume) && meta.voxel_volume >= 0.0,
          "voxel_volume");
  r.Check(FiniteInterval(meta.value_range), "value_range");
  r.Check(meta.subfields.declared == meta.subfields.rows.size(), "subfields");
  CheckSubfieldRows(&r, "sf", meta.subfields.rows, meta.header.num_cells,
                    meta.header.method ==
                        static_cast<int>(VolumeIndexMethod::kIHilbert));
  FIELDDB_RETURN_IF_ERROR(r.status());
  return meta;
}

}  // namespace

const char* VolumeIndexMethodName(VolumeIndexMethod method) {
  switch (method) {
    case VolumeIndexMethod::kLinearScan:
      return "3D-LinearScan";
    case VolumeIndexMethod::kIHilbert:
      return "3D-I-Hilbert";
  }
  return "unknown";
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Build(
    const VolumeGridField& field, const Options& options) {
  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  db->method_ = options.method;
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FieldEngine::BuildConfig config;
  config.page_size = options.page_size;
  config.pool_pages = options.pool_pages;
  config.page_file_factory = options.page_file_factory;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(config));
  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = field.ValueRange();
  db->voxel_volume_ = field.VoxelVolume();

  // 3-D Hilbert order over voxel coordinates. One sorter serves both
  // the in-RAM (budget 0: a single sort) and the bounded-memory
  // (spilled runs + k-way merge) builds; its (key, insertion-seq)
  // tie-break equals the (key, id) order, so both paths emit voxels
  // identically.
  const uint32_t max_dim =
      std::max({field.nx(), field.ny(), field.nz(), 2u});
  int order = 1;
  while ((uint32_t{1} << order) < max_dim) ++order;

  const VoxelId n = field.NumCells();
  ExternalKeyRecordSorter<VoxelId> sorter(
      options.build_memory_budget_bytes);
  for (VoxelId id = 0; id < n; ++id) {
    const std::array<uint32_t, 3> c = field.VoxelCoords(id);
    FIELDDB_RETURN_IF_ERROR(
        sorter.Add(HilbertEncodeND(order, {c[0], c[1], c[2]}), id));
  }

  db->pos_of_.assign(n, 0);
  db->zones_.Reserve(n);
  RecordStoreAppender<VoxelRecord> appender(pool);
  SubfieldStreamBuilder costing(db->value_range_, options.cost);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const VoxelId& id) -> Status {
        const VoxelRecord record = field.GetCell(id);
        db->pos_of_[id] = appender.size();
        FIELDDB_RETURN_IF_ERROR(appender.Append(record));
        const ValueInterval iv = record.Interval();
        db->zones_.Append(iv);
        costing.Add(iv);
        return Status::OK();
      }));
  StatusOr<RecordStore<VoxelRecord>> store = appender.Finish();
  if (!store.ok()) return store.status();
  db->store_ =
      std::make_unique<RecordStore<VoxelRecord>>(std::move(store).value());
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();

  if (options.method == VolumeIndexMethod::kIHilbert) {
    db->subfields_ = costing.Finish();
    StatusOr<RStarTree<1>> tree = RStarTree<1>::BulkLoad(
        pool, SubfieldEntries(db->subfields_), options.rstar);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<1>>(std::move(tree).value());
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

Status VolumeFieldDatabase::Save(const std::string& prefix) {
  return SaveImpl(prefix, SnapshotCrashPoint::kNone);
}

Status VolumeFieldDatabase::SaveImpl(const std::string& prefix,
                                     SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        CatalogWriter w = BeginFieldCatalog(
            kVolumeCatalog, {.page_size = engine_.file()->page_size(),
                             .epoch = new_epoch,
                             .method = static_cast<int>(method_),
                             .num_cells = store_->size(),
                             .store_first_page = store_->first_page()});
        w.Line("voxel_volume", voxel_volume_);
        w.Line("value_range", value_range_.min, value_range_.max);
        if (tree_ != nullptr) w.Line("tree", tree_->meta());
        WriteSubfields<1>(&w, "sf", subfields_);
        return w.Commit(meta_tmp_path);
      });
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<VolumeFieldDatabase>> VolumeFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string meta_path = prefix + ".meta";
  TryCompleteInterruptedSave(prefix, kVolumeCatalog.magic);
  StatusOr<VolumeMetaData> meta = ReadVolumeMeta(meta_path);
  if (!meta.ok()) return meta.status();
  const StoreHeader& header = meta->header;

  auto db = std::unique_ptr<VolumeFieldDatabase>(new VolumeFieldDatabase());
  db->method_ = static_cast<VolumeIndexMethod>(header.method);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  db->value_range_ = meta->value_range;
  db->voxel_volume_ = meta->voxel_volume;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForOpen(
      prefix, header.page_size, header.epoch, options.pool_pages));
  BufferPool* const pool = db->engine_.pool();

  const uint64_t num_pages = db->engine_.file()->NumPages();
  FIELDDB_RETURN_IF_ERROR(CheckStorePages(
      meta_path, "store_first_page", header.store_first_page,
      header.num_cells, header.page_size, sizeof(VoxelRecord), num_pages));
  FIELDDB_RETURN_IF_ERROR(CheckTree(meta_path, "tree", header.tree,
                                    db->method_ == VolumeIndexMethod::kIHilbert,
                                    num_pages));

  StatusOr<RecordStore<VoxelRecord>> store = RecordStore<VoxelRecord>::Attach(
      pool, header.store_first_page, header.num_cells);
  if (!store.ok()) return store.status();
  db->store_ =
      std::make_unique<RecordStore<VoxelRecord>>(std::move(store).value());
  db->subfields_ = std::move(meta->subfields.rows);
  if (db->method_ == VolumeIndexMethod::kIHilbert) {
    StatusOr<RStarTree<1>> tree = RStarTree<1>::Attach(pool, *header.tree);
    if (!tree.ok()) return tree.status();
    db->tree_ = std::make_unique<RStarTree<1>>(std::move(tree).value());
  }

  // One store pass rebuilds both in-RAM sidecars: the voxel-id ->
  // position map and the zone map the planner probes.
  const uint64_t n = header.num_cells;
  db->pos_of_.assign(n, ~uint64_t{0});
  db->zones_.Reserve(n);
  FIELDDB_RETURN_IF_ERROR(db->store_->Scan(
      0, n, [&](uint64_t pos, const VoxelRecord& rec) {
        if (rec.id < n) db->pos_of_[rec.id] = pos;
        db->zones_.Append(rec.Interval());
        return true;
      }));
  for (const uint64_t pos : db->pos_of_) {
    if (pos == ~uint64_t{0}) {
      return Status::Corruption("voxel store is missing voxel ids");
    }
  }

  // Recovery: logical redo through the same apply path updates took, so
  // subfield hulls, tree entries and the zone map are maintained.
  EngineRecoveryReport report;
  VolumeFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.RecoverFromWal(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        return raw->ApplyVoxelValues(static_cast<VoxelId>(frame.cell_id),
                                     frame.values);
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

Status VolumeFieldDatabase::UpdateVoxelValues(VoxelId id,
                                              const std::vector<double>& w) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such voxel");
  if (w.size() != 8) {
    return Status::InvalidArgument("expected 8 corner values, got " +
                                   std::to_string(w.size()));
  }
  // Validated above, so only appliable updates reach the log; replay
  // never meets an invalid frame.
  FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, w));
  return ApplyVoxelValues(id, w);
}

Status VolumeFieldDatabase::ApplyVoxelValues(VoxelId id,
                                             const std::vector<double>& w) {
  if (id >= pos_of_.size()) return Status::OutOfRange("no such voxel");
  if (w.size() != 8) {
    return Status::InvalidArgument("expected 8 corner values, got " +
                                   std::to_string(w.size()));
  }
  const uint64_t pos = pos_of_[id];
  VoxelRecord voxel;
  FIELDDB_RETURN_IF_ERROR(store_->Get(pos, &voxel));
  for (int i = 0; i < 8; ++i) voxel.w[i] = w[i];
  FIELDDB_RETURN_IF_ERROR(store_->Put(pos, voxel));
  const ValueInterval iv = voxel.Interval();
  zones_.Set(pos, iv);
  value_range_.Extend(iv);
  if (tree_ == nullptr) return Status::OK();
  return RefreshSubfieldHull(zones_, tree_.get(), &subfields_, pos,
                             SubfieldEntry<1>);
}

PhysicalPlan VolumeFieldDatabase::ChoosePlan(
    const ValueInterval& band) const {
  return PlanRecordStoreQuery(*store_, zones_, band, tree_ != nullptr,
                              tree_ != nullptr ? tree_->height() : 0,
                              planner_mode());
}

PhysicalPlan VolumeFieldDatabase::PlanBandQuery(
    const ValueInterval& band) const {
  return ChoosePlan(band);
}

void VolumeFieldDatabase::MaybeLogSlowQuery(const ValueInterval& band,
                                            const QueryStats& stats,
                                            const PhysicalPlan& plan) const {
  if (engine_.event_log() == nullptr) return;
  const double wall_ms = stats.wall_seconds * 1000.0;
  if (wall_ms < engine_.slow_query_threshold_ms()) return;
  const double observed_disk_ms = DiskModel{}.EstimateMs(
      stats.io.sequential_reads, stats.io.random_reads());
  engine_.LogEvent(EventLog::Event("slow_query")
                       .Add("field_type", "volume")
                       .Add("wall_ms", wall_ms)
                       .Add("threshold_ms", engine_.slow_query_threshold_ms())
                       .Add("query_min", band.min)
                       .Add("query_max", band.max)
                       .Add("plan", PlanKindName(plan.kind))
                       .Add("reason", plan.reason)
                       .Add("predicted_cost_ms", plan.predicted_cost_ms)
                       .Add("observed_disk_ms", observed_disk_ms)
                       .Add("candidate_cells", stats.candidate_cells)
                       .Add("answer_cells", stats.answer_cells));
}

Status VolumeFieldDatabase::BandQuery(const ValueInterval& band,
                                      VolumeQueryResult* out) {
  if (band.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  out->volume = 0.0;
  out->stats = QueryStats{};
  out->plan = ChoosePlan(band);
  const IoStats io_before = engine_.pool()->stats();
  const auto t0 = std::chrono::steady_clock::now();

  const auto visit = [&](uint64_t, const VoxelRecord& voxel) {
    if (!voxel.Interval().Intersects(band)) return true;
    const double fraction = VoxelBandFraction(voxel.w, band);
    if (fraction > 0.0) {
      out->volume += fraction * voxel_volume_;
      ++out->stats.answer_cells;
    }
    return true;
  };

  if (out->plan.kind == PlanKind::kFusedScan) {
    out->stats.candidate_cells = store_->size();
    FIELDDB_RETURN_IF_ERROR(store_->Scan(0, store_->size(), visit));
  } else {
    std::vector<PosRange> runs;
    FIELDDB_RETURN_IF_ERROR(
        tree_->Search(BoxFromInterval(band), [&](const RTreeEntry<1>& e) {
          runs.push_back(PosRange{e.a, e.b});
          return true;
        }));
    FIELDDB_RETURN_IF_ERROR(
        store_->ScanCoveredRuns(&runs, &out->stats.candidate_cells, visit));
  }

  out->stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out->stats.io = engine_.pool()->stats() - io_before;
  MaybeLogSlowQuery(band, out->stats, out->plan);
  return Status::OK();
}

StatusOr<WorkloadStats> VolumeFieldDatabase::RunWorkload(
    const std::vector<ValueInterval>& queries) {
  WorkloadStats ws;
  if (queries.empty()) return ws;
  QueryStats total;
  std::vector<double> wall_ms;
  wall_ms.reserve(queries.size());
  VolumeQueryResult result;
  for (const ValueInterval& q : queries) {
    FIELDDB_RETURN_IF_ERROR(engine_.pool()->Clear());
    FIELDDB_RETURN_IF_ERROR(BandQuery(q, &result));
    total.Accumulate(result.stats);
    wall_ms.push_back(result.stats.wall_seconds * 1000.0);
  }
  FinalizeWorkloadStats(total, &wall_ms, &ws);
  return ws;
}

}  // namespace fielddb
