// FieldDatabase persistence: Save writes the checksummed page file and a
// text catalog to temp paths, fsyncs, then atomically renames them over
// the previous snapshot (crash-safe: an interrupted save leaves the old
// snapshot loadable). Open validates the catalog strictly and re-attaches
// every component (cell store, value index, spatial tree) against the
// on-disk pages.

#include <cmath>
#include <optional>
#include <span>
#include <string>

#include "core/catalog.h"
#include "core/field_database.h"
#include "core/field_engine.h"

namespace fielddb {

namespace {

// v2 bumped for the per-page [crc | epoch | page id] header framing and
// the catalog's `epoch` key; v1 files have no page headers and cannot be
// verified, so they are rejected rather than trusted.
constexpr CatalogKind kGridCatalog{"fielddb-meta-v2",
                                   static_cast<int>(IndexMethod::kRowIp)};
constexpr const char* kMagicV1 = "fielddb-meta-v1";

struct MetaData {
  StoreHeader header;
  ValueInterval value_range;
  Rect2 domain;
  uint64_t build_entries = 0;
  std::optional<RStarMeta> spatial;
  SubfieldTable<1> subfields;
};

/// Parses and range-validates the catalog: the parser proves it is
/// well-formed text, validation that the values can be acted on without
/// feeding garbage (zero page sizes, NaN ranges, inverted subfields) into
/// the storage layer. kCorruption names the bad key.
StatusOr<MetaData> ReadMeta(const std::string& path) {
  CatalogReader r(path);
  const Status loaded = r.Load(kGridCatalog.magic);
  if (!loaded.ok() && r.magic() == kMagicV1) {
    return Status::Corruption(
        "unsupported v1 catalog (no page checksums) in " + path +
        "; re-save with this version");
  }
  FIELDDB_RETURN_IF_ERROR(loaded);
  MetaData meta;
  while (r.NextKey()) {
    if (ReadHeaderKey(&r, kGridCatalog, &meta.header) ||
        ReadSubfieldKey(&r, "sf", &meta.subfields)) {
      continue;
    }
    const std::string_view k = r.key();
    if (k == "value_range") {
      r.Read(&meta.value_range.min, &meta.value_range.max);
    } else if (k == "domain") {
      r.Read(&meta.domain.lo.x, &meta.domain.lo.y, &meta.domain.hi.x,
             &meta.domain.hi.y);
    } else if (k == "build_entries") {
      r.Read(&meta.build_entries);
    } else if (k == "spatial") {
      r.Read(&meta.spatial.emplace());
    } else {
      r.FailUnknownKey();
    }
  }
  CheckHeader(&r, kGridCatalog, meta.header);
  r.Check(FiniteInterval(meta.value_range), "value_range");
  r.Check(std::isfinite(meta.domain.lo.x) && std::isfinite(meta.domain.lo.y) &&
              std::isfinite(meta.domain.hi.x) &&
              std::isfinite(meta.domain.hi.y),
          "domain");
  r.Check(meta.subfields.declared == meta.subfields.rows.size(), "subfields");
  const IndexMethod method = static_cast<IndexMethod>(meta.header.method);
  CheckSubfieldRows(&r, "sf", meta.subfields.rows, meta.header.num_cells,
                    method == IndexMethod::kIHilbert ||
                        method == IndexMethod::kIntervalQuadtree);
  FIELDDB_RETURN_IF_ERROR(r.status());
  return meta;
}

}  // namespace

StatusOr<uint32_t> FieldDatabase::PeekEpoch(const std::string& prefix) {
  return ReadCatalogEpoch(prefix + ".meta", kGridCatalog.magic);
}

Status FieldDatabase::Save(const std::string& prefix) {
  return SaveImpl(prefix, SaveCrashPoint::kNone);
}

Status FieldDatabase::SaveCrashBeforeRenameForTest(const std::string& prefix) {
  return SaveImpl(prefix, SaveCrashPoint::kBeforeRename);
}

Status FieldDatabase::SaveImpl(const std::string& prefix,
                               SaveCrashPoint crash_point) {
  if (index_->method() == IndexMethod::kRowIp) {
    // Refuse before any page is copied, not from inside the pipeline.
    return Status::Unimplemented(
        "Row-IP is a comparison baseline without persistence support");
  }
  // The page-copy / rename / WAL-truncate pipeline is the engine's
  // (field-type-agnostic); only the catalog body is ours.
  return engine_.SaveSnapshot(
      prefix, crash_point,
      [&](const std::string& meta_tmp_path, uint32_t new_epoch) -> Status {
        StoreHeader header{
            .page_size = engine_.file()->page_size(),
            .epoch = new_epoch,
            .method = static_cast<int>(index_->method()),
            .num_cells = index_->cell_store().size(),
            .store_first_page = index_->cell_store().first_page()};
        std::span<const Subfield> subfields;
        switch (index_->method()) {
          case IndexMethod::kLinearScan:
            break;
          case IndexMethod::kIAll:
            header.tree =
                static_cast<const IAllIndex*>(index_.get())->tree().meta();
            break;
          case IndexMethod::kIHilbert: {
            const auto* idx = static_cast<const IHilbertIndex*>(index_.get());
            header.tree = idx->tree().meta();
            subfields = idx->subfields();
            break;
          }
          case IndexMethod::kIntervalQuadtree: {
            const auto* idx =
                static_cast<const IntervalQuadtreeIndex*>(index_.get());
            header.tree = idx->tree().meta();
            subfields = idx->subfields();
            break;
          }
          case IndexMethod::kRowIp:
            return Status::Unimplemented(
                "Row-IP is a comparison baseline without persistence "
                "support");
        }
        CatalogWriter w = BeginFieldCatalog(kGridCatalog, header);
        w.Line("value_range", value_range_.min, value_range_.max);
        w.Line("domain", domain_.lo.x, domain_.lo.y, domain_.hi.x,
               domain_.hi.y);
        w.Line("build_entries", index_->build_info().num_index_entries);
        if (header.tree) w.Line("tree", *header.tree);
        if (spatial_.has_value()) w.Line("spatial", spatial_->meta());
        WriteSubfields(&w, "sf", subfields);
        return w.Commit(meta_tmp_path);
      });
}

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Open(
    const std::string& prefix, size_t pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Open(prefix, options);
}

StatusOr<std::unique_ptr<FieldDatabase>> FieldDatabase::Open(
    const std::string& prefix, const OpenOptions& options) {
  const std::string meta_path = prefix + ".meta";

  // Self-heal a save that crashed between its two renames (see
  // TryCompleteInterruptedSave): `.pages` already holds the next
  // snapshot but `.meta` still describes the previous one.
  TryCompleteInterruptedSave(prefix, kGridCatalog.magic);

  StatusOr<MetaData> meta = ReadMeta(meta_path);
  if (!meta.ok()) return meta.status();

  const StoreHeader& header = meta->header;
  auto db = std::unique_ptr<FieldDatabase>(new FieldDatabase());
  FIELDDB_RETURN_IF_ERROR(
      db->engine_.InitForOpen(prefix, header.page_size, header.epoch,
                              options.pool_pages, options.readahead_pages));

  // Page-range validation against the actual file: a truncated or
  // mismatched page file must not turn into out-of-range reads or
  // catalog-sized allocations later.
  const uint64_t num_pages = db->engine_.file()->NumPages();
  const IndexMethod method = static_cast<IndexMethod>(header.method);
  FIELDDB_RETURN_IF_ERROR(CheckStorePages(
      meta_path, "store_first_page", header.store_first_page,
      header.num_cells, header.page_size, sizeof(CellRecord), num_pages));
  FIELDDB_RETURN_IF_ERROR(CheckTree(meta_path, "tree", header.tree,
                                    method != IndexMethod::kLinearScan,
                                    num_pages));
  FIELDDB_RETURN_IF_ERROR(
      CheckTree(meta_path, "spatial", meta->spatial, false, num_pages));

  BufferPool* const pool = db->engine_.pool();
  db->value_range_ = meta->value_range;
  db->domain_ = meta->domain;

  StatusOr<CellStore> store =
      CellStore::Attach(pool, header.store_first_page, header.num_cells);
  if (!store.ok()) return store.status();

  IndexBuildInfo info;
  info.num_cells = header.num_cells;
  info.num_index_entries = meta->build_entries;
  info.num_subfields = meta->subfields.rows.size();
  info.store_pages = store->num_pages();
  info.tree_height = header.tree ? header.tree->height : 0;
  info.tree_nodes = header.tree ? header.tree->num_nodes : 0;

  StatusOr<RStarTree<1>> tree = Status::Internal("no value tree");
  if (method != IndexMethod::kLinearScan) {
    tree = RStarTree<1>::Attach(pool, *header.tree);
    if (!tree.ok()) return tree.status();
  }
  switch (method) {
    case IndexMethod::kLinearScan:
      db->index_ =
          LinearScanIndex::Attach(std::move(store).value(), info);
      break;
    case IndexMethod::kIAll:
      db->index_ = IAllIndex::Attach(std::move(store).value(),
                                     std::move(tree).value(), info);
      break;
    case IndexMethod::kIHilbert:
      db->index_ = IHilbertIndex::Attach(
          std::move(store).value(), std::move(tree).value(),
          std::move(meta->subfields.rows), info);
      break;
    case IndexMethod::kIntervalQuadtree:
      db->index_ = IntervalQuadtreeIndex::Attach(
          std::move(store).value(), std::move(tree).value(),
          std::move(meta->subfields.rows), info);
      break;
    default:
      return Status::Corruption("unknown index method in catalog");
  }
  if (meta->spatial) {
    StatusOr<RStarTree<2>> spatial = RStarTree<2>::Attach(pool, *meta->spatial);
    if (!spatial.ok()) return spatial.status();
    db->spatial_.emplace(std::move(spatial).value());
  }
  // Planning is a pure function of the attached index state, so a
  // reopened snapshot plans exactly like the database that saved it.
  db->InitPlanner(PlannerMode::kAuto);

  // Recovery: replay the write-ahead log over the snapshot (logical
  // redo through the same UpdateCellValues path the original mutations
  // took, so the zone map, subfield intervals and interval-tree entries
  // are all maintained, not just pages), then either keep logging or
  // fold into a fresh checkpoint. The scan/replay/verify pipeline,
  // stale-epoch filtering and metrics are the engine's.
  RecoveryReport report;
  FIELDDB_RETURN_IF_ERROR(db->engine_.RecoverFromWal(
      prefix, options.wal_mode,
      [&](const WalFrame& frame) -> Status {
        FIELDDB_RETURN_IF_ERROR(
            db->index_->UpdateCellValues(frame.cell_id, frame.values));
        for (const double w : frame.values) db->value_range_.Extend(w);
        return Status::OK();
      },
      [&]() { return db->SaveImpl(prefix, SaveCrashPoint::kNone); },
      &report));

  if (!options.event_log_path.empty()) {
    FIELDDB_RETURN_IF_ERROR(db->AttachEventLog(
        options.event_log_path, options.slow_query_threshold_ms));
    // One structured record per open: what recovery found and did. The
    // event log writes through its own fd, never the page file, so this
    // cannot disturb recovery state or I/O attribution.
    db->engine_.LogRecoveryEvent(report, options.wal_mode);
    if (options.wal_mode == WalMode::kOff && report.folded) {
      db->LogEvent(EventLog::Event("wal_mode_transition")
                       .Add("from", "unknown")
                       .Add("to", WalModeName(WalMode::kOff))
                       .Add("at", "open_fold"));
    }
  }

  pool->ResetStats();
  if (options.recovery_report != nullptr) {
    *options.recovery_report = std::move(report);
  }
  return db;
}

}  // namespace fielddb
