#include "temporal/temporal_index.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string_view>

#include "common/geometry.h"
#include "core/catalog.h"
#include "core/ext_sort.h"
#include "field/isoband.h"
#include "index/subfield_maintenance.h"

namespace fielddb {

namespace {

// Synthesizes the spatial cell record of a slab record at intra-slab
// time tau in [0, 1] (vertex-wise linear interpolation).
CellRecord AtTau(const VectorCellRecord& rec, double tau) {
  CellRecord cell;
  cell.num_vertices = rec.num_vertices;
  cell.id = rec.id;
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    cell.x[i] = rec.x[i];
    cell.y[i] = rec.y[i];
    cell.w[i] = (1.0 - tau) * rec.u[i] + tau * rec.v[i];
  }
  return cell;
}

// A slab record's value interval over the whole slab.
ValueInterval SlabInterval(const VectorCellRecord& rec) {
  ValueInterval iv = ValueInterval::Empty();
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    iv.Extend(rec.u[i]);
    iv.Extend(rec.v[i]);
  }
  return iv;
}

constexpr CatalogKind kTemporalCatalog{"fielddb-temporal-meta-v1", 0,
                                       /*slabbed=*/true};

struct TemporalMetaData {
  StoreHeader header;
  std::vector<PageId> slab_first_pages;  // index = slab k
  std::vector<std::vector<Subfield>> slab_subfields;
};

StatusOr<TemporalMetaData> ReadTemporalMeta(const std::string& path) {
  CatalogReader r(path);
  FIELDDB_RETURN_IF_ERROR(r.Load(kTemporalCatalog.magic));
  TemporalMetaData meta;
  uint64_t declared_subfields = 0;
  uint64_t parsed_subfields = 0;
  while (r.NextKey()) {
    if (ReadHeaderKey(&r, kTemporalCatalog, &meta.header)) continue;
    const std::string_view k = r.key();
    uint32_t slab = 0;
    if (k == "slab") {
      // Slabs are listed in order and before any tsf row, so every
      // allocation follows a row actually present in the file.
      PageId first = 0;
      if (r.Read(&slab, &first) &&
          r.Check(slab == meta.slab_first_pages.size(), "slab")) {
        meta.slab_first_pages.push_back(first);
        meta.slab_subfields.emplace_back();
      }
    } else if (k == "subfields") {
      r.Read(&declared_subfields);
    } else if (k == "tsf") {
      Subfield sf;
      if (r.Read(&slab, &sf) &&
          r.Check(slab < meta.slab_subfields.size(), "tsf")) {
        meta.slab_subfields[slab].push_back(sf);
        ++parsed_subfields;
      }
    } else {
      r.FailUnknownKey();
    }
  }
  CheckHeader(&r, kTemporalCatalog, meta.header);
  r.Check(meta.slab_first_pages.size() == meta.header.num_slabs, "slab");
  r.Check(declared_subfields == parsed_subfields, "subfields");
  for (const std::vector<Subfield>& sfs : meta.slab_subfields) {
    CheckSubfieldRows(&r, "tsf", sfs, meta.header.num_cells,
                      /*partitioned=*/true);
  }
  FIELDDB_RETURN_IF_ERROR(r.status());
  return meta;
}

}  // namespace

StatusOr<std::unique_ptr<TemporalFieldDatabase>>
TemporalFieldDatabase::Build(const TemporalGridField& field,
                             const Options& options) {
  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  db->num_slabs_ = field.NumSlabs();
  db->t_max_ = static_cast<double>(field.NumSnapshots() - 1);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FieldEngine::BuildConfig config;
  config.page_size = options.page_size;
  config.pool_pages = options.pool_pages;
  config.page_file_factory = options.page_file_factory;
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForBuild(config));
  BufferPool* const pool = db->engine_.pool();

  // One shared Hilbert order over the (time-invariant) cell geometry,
  // computed with the external sorter under the build memory budget.
  // The (key, insertion-seq) tie-break equals LinearizeCells's (key, id)
  // sort, so the order is byte-identical to the in-RAM path.
  StatusOr<GridField> first = field.Snapshot(0);
  if (!first.ok()) return first.status();
  const std::unique_ptr<SpaceFillingCurve> curve =
      MakeCurve(options.curve, options.curve_order);
  const CellId n = field.NumCells();
  const Rect2 domain = first->Domain();
  const double dw = std::max(domain.Width(), kGeomEpsilon);
  const double dh = std::max(domain.Height(), kGeomEpsilon);
  ExternalKeyRecordSorter<CellId> sorter(options.build_memory_budget_bytes);
  for (CellId id = 0; id < n; ++id) {
    const Point2 c = first->GetCell(id).Centroid();
    FIELDDB_RETURN_IF_ERROR(sorter.Add(
        curve->EncodeUnit((c.x - domain.lo.x) / dw,
                          (c.y - domain.lo.y) / dh),
        id));
  }
  std::vector<CellId> order;
  order.reserve(n);
  FIELDDB_RETURN_IF_ERROR(
      sorter.Merge([&](uint64_t, const CellId& id) -> Status {
        order.push_back(id);
        return Status::OK();
      }));
  db->ext_spill_runs_ = sorter.spill_runs();
  db->ext_peak_buffered_bytes_ = sorter.peak_buffered_bytes();
  db->pos_of_.assign(order.size(), 0);
  for (uint64_t pos = 0; pos < order.size(); ++pos) {
    db->pos_of_[order[pos]] = pos;
  }

  const ValueInterval range = field.ValueRange();
  std::vector<RTreeEntry<2>> entries;

  for (uint32_t k = 0; k < db->num_slabs_; ++k) {
    Slab slab;
    slab.zones.Reserve(n);
    RecordStoreAppender<VectorCellRecord> appender(pool);
    SubfieldStreamBuilder costing(range, options.cost);
    for (CellId pos = 0; pos < n; ++pos) {
      const CellId id = order[pos];
      const CellRecord geometry = first->GetCell(id);
      VectorCellRecord rec;
      rec.num_vertices = geometry.num_vertices;
      rec.id = id;
      // Vertex grid coordinates of the quad corners.
      const uint32_t ci = id % field.cols();
      const uint32_t cj = id / field.cols();
      const uint32_t vi[4] = {ci, ci + 1, ci + 1, ci};
      const uint32_t vj[4] = {cj, cj, cj + 1, cj + 1};
      for (int corner = 0; corner < 4; ++corner) {
        rec.x[corner] = geometry.x[corner];
        rec.y[corner] = geometry.y[corner];
        rec.u[corner] = field.SampleAt(k, vi[corner], vj[corner]);
        rec.v[corner] = field.SampleAt(k + 1, vi[corner], vj[corner]);
      }
      FIELDDB_RETURN_IF_ERROR(appender.Append(rec));
      const ValueInterval iv = SlabInterval(rec);
      slab.zones.Append(iv);
      costing.Add(iv);
    }
    StatusOr<RecordStore<VectorCellRecord>> store = appender.Finish();
    if (!store.ok()) return store.status();
    slab.store = std::make_unique<RecordStore<VectorCellRecord>>(
        std::move(store).value());
    slab.subfields = costing.Finish();

    for (size_t si = 0; si < slab.subfields.size(); ++si) {
      entries.push_back(SlabSubfieldEntry(k, si, slab.subfields[si]));
    }
    db->total_subfields_ += slab.subfields.size();
    db->slabs_.push_back(std::move(slab));
  }

  // Entries arrive slab-major in Hilbert order — already well packed.
  StatusOr<RStarTree<2>> tree =
      RStarTree<2>::BulkLoad(pool, entries, options.rstar);
  if (!tree.ok()) return tree.status();
  db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());

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

Status TemporalFieldDatabase::Save(const std::string& prefix) {
  return SaveImpl(prefix, SnapshotCrashPoint::kNone);
}

Status TemporalFieldDatabase::SaveImpl(const std::string& prefix,
                                       SnapshotCrashPoint crash_point) {
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        CatalogWriter w = BeginFieldCatalog(
            kTemporalCatalog, {.page_size = engine_.file()->page_size(),
                               .epoch = new_epoch,
                               .num_slabs = num_slabs_,
                               .num_cells = pos_of_.size()});
        if (tree_ != nullptr) w.Line("tree", tree_->meta());
        uint64_t total = 0;
        for (uint32_t k = 0; k < num_slabs_; ++k) {
          w.Line("slab", k, slabs_[k].store->first_page());
          total += slabs_[k].subfields.size();
        }
        w.Line("subfields", total);
        for (uint32_t k = 0; k < num_slabs_; ++k) {
          for (const Subfield& sf : slabs_[k].subfields) w.Line("tsf", k, sf);
        }
        return w.Commit(meta_tmp_path);
      });
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix) {
  return Open(prefix, OpenOptions{});
}

StatusOr<std::unique_ptr<TemporalFieldDatabase>> TemporalFieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string meta_path = prefix + ".meta";
  TryCompleteInterruptedSave(prefix, kTemporalCatalog.magic);
  StatusOr<TemporalMetaData> meta = ReadTemporalMeta(meta_path);
  if (!meta.ok()) return meta.status();
  const StoreHeader& header = meta->header;

  auto db =
      std::unique_ptr<TemporalFieldDatabase>(new TemporalFieldDatabase());
  db->num_slabs_ = header.num_slabs;
  db->t_max_ = static_cast<double>(header.num_slabs);
  db->planner_mode_.store(options.planner_mode, std::memory_order_relaxed);
  FIELDDB_RETURN_IF_ERROR(db->engine_.InitForOpen(
      prefix, header.page_size, header.epoch, options.pool_pages));
  BufferPool* const pool = db->engine_.pool();

  const uint64_t num_pages = db->engine_.file()->NumPages();
  FIELDDB_RETURN_IF_ERROR(
      CheckTree(meta_path, "tree", header.tree, true, num_pages));
  const uint64_t n = header.num_cells;
  for (const PageId first : meta->slab_first_pages) {
    FIELDDB_RETURN_IF_ERROR(
        CheckStorePages(meta_path, "slab", first, n, header.page_size,
                        sizeof(VectorCellRecord), num_pages));
  }

  // Attach the slab stores and rebuild the in-RAM sidecars (zone maps
  // per slab; the shared position map from slab 0's record ids).
  db->pos_of_.assign(n, ~uint64_t{0});
  for (uint32_t k = 0; k < header.num_slabs; ++k) {
    Slab slab;
    StatusOr<RecordStore<VectorCellRecord>> store =
        RecordStore<VectorCellRecord>::Attach(pool,
                                              meta->slab_first_pages[k], n);
    if (!store.ok()) return store.status();
    slab.store = std::make_unique<RecordStore<VectorCellRecord>>(
        std::move(store).value());
    slab.subfields = std::move(meta->slab_subfields[k]);
    db->total_subfields_ += slab.subfields.size();
    slab.zones.Reserve(n);
    bool foreign = false;
    FIELDDB_RETURN_IF_ERROR(slab.store->Scan(
        0, n, [&](uint64_t pos, const VectorCellRecord& rec) {
          // A record no Build wrote: the catalog overstates num_cells.
          foreign = rec.num_vertices > 4;
          if (foreign) return false;
          slab.zones.Append(SlabInterval(rec));
          if (k == 0 && rec.id < n) db->pos_of_[rec.id] = pos;
          return true;
        }));
    if (foreign) return Status::Corruption("slab store holds a foreign record");
    db->slabs_.push_back(std::move(slab));
  }
  // CheckHeader admits no slab-less catalog, so slab 0 mapped every id.
  for (const uint64_t pos : db->pos_of_) {
    if (pos == ~uint64_t{0}) {
      return Status::Corruption("temporal store is missing cell ids");
    }
  }
  StatusOr<RStarTree<2>> tree = RStarTree<2>::Attach(pool, *header.tree);
  if (!tree.ok()) return tree.status();
  db->tree_ = std::make_unique<RStarTree<2>>(std::move(tree).value());

  // Recovery: a frame carries the snapshot index in values[0] followed
  // by the vertex samples; logical redo through the same apply path
  // updates took maintains subfield hulls, tree entries and zone maps.
  EngineRecoveryReport report;
  TemporalFieldDatabase* const raw = db.get();
  FIELDDB_RETURN_IF_ERROR(db->engine_.RecoverFromWal(
      prefix, options.wal_mode,
      [raw](const WalFrame& frame) -> Status {
        if (frame.values.size() < 2) {
          return Status::Corruption("temporal WAL frame too short");
        }
        const double s = frame.values[0];
        if (!(s >= 0.0) || s != std::floor(s) ||
            s > static_cast<double>(raw->num_slabs_)) {
          return Status::Corruption(
              "temporal WAL frame has an invalid snapshot index");
        }
        const std::vector<double> samples(frame.values.begin() + 1,
                                          frame.values.end());
        return raw->ApplySnapshotCellValues(static_cast<uint32_t>(s),
                                            frame.cell_id, samples);
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

Status TemporalFieldDatabase::UpdateSlabSide(
    uint32_t k, uint64_t pos, bool u_side,
    const std::vector<double>& values) {
  Slab& slab = slabs_[k];
  VectorCellRecord rec;
  FIELDDB_RETURN_IF_ERROR(slab.store->Get(pos, &rec));
  if (values.size() != rec.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(rec.num_vertices) + " values, got " +
        std::to_string(values.size()));
  }
  for (uint32_t i = 0; i < rec.num_vertices; ++i) {
    (u_side ? rec.u : rec.v)[i] = values[i];
  }
  FIELDDB_RETURN_IF_ERROR(slab.store->Put(pos, rec));
  slab.zones.Set(pos, SlabInterval(rec));

  // Refresh the containing subfield's value hull; the time extent
  // [k, k+1] of the tree entry never changes.
  return RefreshSubfieldHull(
      slab.zones, tree_.get(), &slab.subfields, pos,
      [k](size_t si, const Subfield& sf) {
        return SlabSubfieldEntry(k, si, sf);
      });
}

RTreeEntry<2> TemporalFieldDatabase::SlabSubfieldEntry(uint32_t k, size_t si,
                                                      const Subfield& sf) {
  RTreeEntry<2> e;
  e.box.lo = {sf.interval.min, static_cast<double>(k)};
  e.box.hi = {sf.interval.max, static_cast<double>(k + 1)};
  e.a = k;
  e.b = si;
  return e;
}

Status TemporalFieldDatabase::ApplySnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  const uint64_t pos = pos_of_[id];
  // Snapshot k is the late endpoint (v) of slab k-1 and the early
  // endpoint (u) of slab k; both records must agree on the new samples.
  if (snapshot > 0) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot - 1, pos, /*u_side=*/false, values));
  }
  if (snapshot < num_slabs_) {
    FIELDDB_RETURN_IF_ERROR(
        UpdateSlabSide(snapshot, pos, /*u_side=*/true, values));
  }
  return Status::OK();
}

Status TemporalFieldDatabase::UpdateSnapshotCellValues(
    uint32_t snapshot, CellId id, const std::vector<double>& values) {
  if (snapshot > num_slabs_) {
    return Status::OutOfRange("no such snapshot");
  }
  if (id >= pos_of_.size()) return Status::OutOfRange("no such cell");
  if (slabs_.empty()) return Status::OK();
  // Validate against the record before logging, so only appliable
  // updates ever reach the WAL and replay never meets invalid frames.
  const uint32_t ref_slab = snapshot > 0 ? snapshot - 1 : 0;
  VectorCellRecord rec;
  FIELDDB_RETURN_IF_ERROR(slabs_[ref_slab].store->Get(pos_of_[id], &rec));
  if (values.size() != rec.num_vertices) {
    return Status::InvalidArgument(
        "expected " + std::to_string(rec.num_vertices) + " values, got " +
        std::to_string(values.size()));
  }
  if (engine_.wal() != nullptr) {
    std::vector<double> payload;
    payload.reserve(values.size() + 1);
    payload.push_back(static_cast<double>(snapshot));
    payload.insert(payload.end(), values.begin(), values.end());
    FIELDDB_RETURN_IF_ERROR(engine_.LogUpdate(id, payload));
  }
  return ApplySnapshotCellValues(snapshot, id, values);
}

PhysicalPlan TemporalFieldDatabase::ChoosePlan(
    uint32_t k, const ValueInterval& band) const {
  return PlanRecordStoreQuery(*slabs_[k].store, slabs_[k].zones, band,
                              tree_ != nullptr,
                              tree_ != nullptr ? tree_->height() : 0,
                              planner_mode());
}

PhysicalPlan TemporalFieldDatabase::PlanSnapshotQuery(
    double t, const ValueInterval& band) const {
  const uint32_t k = static_cast<uint32_t>(
      std::min(std::floor(std::max(t, 0.0)), t_max_ - 1.0));
  return ChoosePlan(k, band);
}

void TemporalFieldDatabase::MaybeLogSlowQuery(
    double t, const ValueInterval& band, const QueryStats& stats,
    const PhysicalPlan& plan) const {
  if (engine_.event_log() == nullptr) return;
  const double wall_ms = stats.wall_seconds * 1000.0;
  if (wall_ms < engine_.slow_query_threshold_ms()) return;
  const double observed_disk_ms = DiskModel{}.EstimateMs(
      stats.io.sequential_reads, stats.io.random_reads());
  engine_.LogEvent(EventLog::Event("slow_query")
                       .Add("field_type", "temporal")
                       .Add("wall_ms", wall_ms)
                       .Add("threshold_ms", engine_.slow_query_threshold_ms())
                       .Add("time_t", t)
                       .Add("query_min", band.min)
                       .Add("query_max", band.max)
                       .Add("plan", PlanKindName(plan.kind))
                       .Add("reason", plan.reason)
                       .Add("predicted_cost_ms", plan.predicted_cost_ms)
                       .Add("observed_disk_ms", observed_disk_ms)
                       .Add("candidate_cells", stats.candidate_cells)
                       .Add("answer_cells", stats.answer_cells));
}

Status TemporalFieldDatabase::SnapshotValueQuery(double t,
                                                 const ValueInterval& band,
                                                 ValueQueryResult* out) {
  if (band.IsEmpty()) {
    return Status::InvalidArgument("empty query band");
  }
  if (t < 0.0 || t > t_max_) {
    return Status::OutOfRange("time outside [0, T-1]");
  }
  out->region.pieces.clear();
  out->stats = QueryStats{};
  const uint32_t k = static_cast<uint32_t>(
      std::min(std::floor(t), t_max_ - 1.0));
  const double tau = t - k;
  out->plan = ChoosePlan(k, band);
  const IoStats io_before = engine_.pool()->stats();
  const auto t0 = std::chrono::steady_clock::now();

  Status inner = Status::OK();
  const auto visit_cell = [&](uint64_t, const VectorCellRecord& rec) {
    const CellRecord cell = AtTau(rec, tau);
    StatusOr<size_t> pieces = CellIsoband(cell, band, &out->region);
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
    const uint64_t n = slabs_[k].store->size();
    out->stats.candidate_cells = n;
    FIELDDB_RETURN_IF_ERROR(slabs_[k].store->Scan(0, n, visit_cell));
    FIELDDB_RETURN_IF_ERROR(inner);
  } else {
    Box<2> query;
    query.lo = {band.min, t};
    query.hi = {band.max, t};
    std::vector<PosRange> runs;
    FIELDDB_RETURN_IF_ERROR(
        tree_->Search(query, [&](const RTreeEntry<2>& e) {
          if (e.a == k) {  // integer t also brushes the previous slab
            const Subfield& sf = slabs_[k].subfields[e.b];
            runs.push_back(PosRange{sf.start, sf.end});
          }
          return true;
        }));
    FIELDDB_RETURN_IF_ERROR(slabs_[k].store->ScanCoveredRuns(
        &runs, &out->stats.candidate_cells, visit_cell));
    FIELDDB_RETURN_IF_ERROR(inner);
  }

  out->stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out->stats.io = engine_.pool()->stats() - io_before;
  MaybeLogSlowQuery(t, band, out->stats, out->plan);
  return Status::OK();
}

Status TemporalFieldDatabase::TimeRangeCandidates(
    const ValueInterval& band, double t0, double t1,
    std::vector<CellId>* out) {
  if (band.IsEmpty() || t0 > t1) {
    return Status::InvalidArgument("bad query");
  }
  Box<2> query;
  query.lo = {band.min, std::max(0.0, t0)};
  query.hi = {band.max, std::min(t_max_, t1)};

  std::vector<bool> seen;
  Status inner = Status::OK();
  FIELDDB_RETURN_IF_ERROR(
      tree_->Search(query, [&](const RTreeEntry<2>& e) {
        const Slab& slab = slabs_[e.a];
        const Subfield& sf = slab.subfields[e.b];
        const Status s = slab.store->Scan(
            sf.start, sf.end, [&](uint64_t, const VectorCellRecord& rec) {
              if (seen.empty()) {
                seen.resize(slab.store->size(), false);
              }
              if (!seen[rec.id]) {
                seen[rec.id] = true;
                out->push_back(rec.id);
              }
              return true;
            });
        if (!s.ok()) {
          inner = s;
          return false;
        }
        return true;
      }));
  FIELDDB_RETURN_IF_ERROR(inner);
  std::sort(out->begin(), out->end());
  return Status::OK();
}

StatusOr<WorkloadStats> TemporalFieldDatabase::RunWorkload(
    const std::vector<TemporalSnapshotQuery>& queries) {
  WorkloadStats ws;
  if (queries.empty()) return ws;
  QueryStats total;
  std::vector<double> wall_ms;
  wall_ms.reserve(queries.size());
  ValueQueryResult result;
  for (const TemporalSnapshotQuery& q : queries) {
    FIELDDB_RETURN_IF_ERROR(engine_.pool()->Clear());
    FIELDDB_RETURN_IF_ERROR(SnapshotValueQuery(q.first, q.second, &result));
    total.Accumulate(result.stats);
    wall_ms.push_back(result.stats.wall_seconds * 1000.0);
  }
  FinalizeWorkloadStats(total, &wall_ms, &ws);
  return ws;
}

}  // namespace fielddb
