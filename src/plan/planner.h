#ifndef FIELDDB_PLAN_PLANNER_H_
#define FIELDDB_PLAN_PLANNER_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/simd/interval_filter.h"
#include "index/subfield.h"
#include "index/value_index.h"
#include "index/zone_map.h"
#include "plan/cost_model.h"

namespace fielddb {

/// The two physical shapes a field value query can execute as:
///  - kFusedScan: one pass over every store page, testing and estimating
///    each cell in place (the paper's LinearScan execution, available to
///    every method);
///  - kIndexedFilter: FilterOp (index search for candidate runs) then
///    ScanOp over just those runs (the paper's filter -> fetch ->
///    estimate pipeline).
enum class PlanKind {
  kFusedScan,
  kIndexedFilter,
};

const char* PlanKindName(PlanKind kind);

/// How the planner picks between the plan kinds. kAuto is the cost-based
/// default; the forced modes exist for differential tests, benches, and
/// the CLI (`fielddb_cli plan --mode ...`). Forcing the index on a
/// LinearScan database still yields a fused scan — there is no index to
/// force.
enum class PlannerMode {
  kAuto,
  kForceScan,
  kForceIndex,
};

const char* PlannerModeName(PlannerMode mode);

/// The planner's verdict on admitting one more query into a shared scan
/// group (see QueryPlanner::CostSharedScan).
struct SharedScanDecision {
  /// True when executing the widened group as one fused sweep is
  /// predicted no more expensive than the group and the candidate
  /// executing separately.
  bool share = false;
  /// Predicted cost of one sweep over the widened envelope.
  double shared_cost_ms = 0.0;
  /// Predicted cost of the group's envelope and the candidate running
  /// as two independent queries (each under its own best plan).
  double isolated_cost_ms = 0.0;
  std::string reason;
};

/// The planner's decision for one query: the chosen kind, the predicted
/// page patterns and disk-model costs of both alternatives, and a
/// human-readable reason. Flows into trace spans, ExplainResult, and the
/// `fielddb_cli plan` subcommand.
struct PhysicalPlan {
  PlanKind kind = PlanKind::kFusedScan;
  /// Candidate cells the filter step is predicted to produce (exact for
  /// subfield tables and in-memory zone maps; scaled for the strided
  /// probe on very large stores). 0 when no probe ran (LinearScan,
  /// forced scan).
  uint64_t predicted_candidates = 0;
  /// Predicted candidate runs (seek count of the fetch).
  uint64_t predicted_runs = 0;
  /// predicted_candidates / num_cells.
  double selectivity = 0.0;
  PagePattern scan_pattern;
  PagePattern index_pattern;  // filter descent + candidate fetch
  double scan_cost_ms = 0.0;
  double index_cost_ms = 0.0;
  /// Disk-model cost of the *chosen* kind.
  double predicted_cost_ms = 0.0;
  /// True when a selectivity probe ran for this plan. LinearScan
  /// databases and forced scans never probe, so their
  /// predicted_candidates == 0 means "unknown", not "empty".
  bool probed = false;
  /// True when the probe used the strided zone-map sample (stores above
  /// kExactProbeCells): predicted_candidates may then undercount, so a
  /// zero prediction is not proof of an empty answer. The shard router
  /// keys its skip decision on this — a shard may be skipped only when
  /// its probe was exact and predicted zero candidates (or its value
  /// hull misses the query entirely).
  bool probe_sampled = false;
  std::string reason;
};

/// What a selectivity probe predicts about a query's filter output.
struct Selectivity {
  uint64_t candidates = 0;
  uint64_t runs = 0;
  /// Fraction of the index's entries (subfields or cells) the filter is
  /// predicted to touch — drives the tree-descent cost estimate.
  double entry_fraction = 0.0;
  /// True for the strided zone-map sample: only the counts are known,
  /// not the runs themselves.
  bool sampled = false;
};

/// Stores at or below this many cells are probed with the exact
/// zone-map filter; larger ones use the strided sample (ZoneMap::Probe)
/// so planning stays sublinear in the store size.
inline constexpr uint64_t kExactProbeCells = uint64_t{1} << 20;

/// The zero-I/O selectivity probe over a store's zone map, shared by
/// every field type: the zone map predicts a per-cell filter exactly, so
/// stores up to kExactProbeCells get the exact candidate runs in
/// `*runs`; larger ones get counts scaled from the strided sample.
template <int D>
Selectivity ProbeZoneMap(const ZoneMap<D>& zones,
                         const ValueSummary<D>& query,
                         std::vector<PosRange>* runs) {
  Selectivity sel;
  const uint64_t n = zones.size();
  if (n <= kExactProbeCells) {
    zones.FilterRanges(query, runs);
    sel.candidates = TotalRangeLength(*runs);
    sel.runs = runs->size();
  } else {
    const uint64_t stride = (n + kExactProbeCells - 1) / kExactProbeCells;
    const ZoneProbe probe = zones.Probe(query, stride);
    sel.sampled = true;
    sel.candidates = std::min<uint64_t>(n, probe.matched * stride);
    sel.runs =
        std::max<uint64_t>(probe.run_starts, probe.matched > 0 ? 1 : 0);
  }
  sel.entry_fraction =
      n > 0 ? static_cast<double>(sel.candidates) / n : 0.0;
  return sel;
}

/// The plan pricer every field type shares: turns the store shape, the
/// probe's selectivity (exact `runs`, or sampled counts) and the index's
/// own filter reads (`filter`: tree descent, directory) into a
/// PhysicalPlan, pricing both alternatives with the paper's disk model:
///  - fused scan: every store page once (one seek + pure transfer);
///  - indexed filter: `filter` plus the candidate-run fetch — the exact
///    runs' page pattern, or the approximate one for a sampled probe.
/// kForceIndex takes the index; kAuto takes the cheaper (the scan on
/// ties). Deterministic and independent of buffer-pool state.
PhysicalPlan PriceProbedPlan(const StoreShape& shape,
                             const PlanCostModel& cost, PlannerMode mode,
                             const Selectivity& sel,
                             const std::vector<PosRange>& runs,
                             const PagePattern& filter);

/// PriceProbedPlan behind the two cases that need no probe: a store
/// without a value index (`has_index` false) and a forced scan both get
/// the fused scan. Otherwise `probe(&runs, &filter) -> Selectivity` runs
/// the caller's zero-I/O probe and the result is priced.
template <typename ProbeFn>
PhysicalPlan PricePlan(const StoreShape& shape, const PlanCostModel& cost,
                       PlannerMode mode, bool has_index, ProbeFn&& probe) {
  if (!has_index || mode == PlannerMode::kForceScan) {
    PhysicalPlan plan;
    plan.scan_pattern = cost.ScanPattern(shape);
    plan.scan_cost_ms = cost.CostMs(plan.scan_pattern);
    plan.kind = PlanKind::kFusedScan;
    plan.predicted_cost_ms = plan.scan_cost_ms;
    plan.reason =
        has_index ? "forced: fused scan"
                  : "LinearScan: no value index, fused scan is the only plan";
    return plan;
  }
  std::vector<PosRange> runs;
  PagePattern filter;
  const Selectivity sel = probe(&runs, &filter);
  return PriceProbedPlan(shape, cost, mode, sel, runs, filter);
}

/// PricePlan for the extension stores (temporal slabs, vector cells,
/// voxels): a RecordStore probed through its zone map, whose index filter
/// is one descent of a tree of `tree_height` levels (scattered nodes:
/// every read seeks). `has_index` false is a LinearScan store.
template <typename Store, int D>
PhysicalPlan PlanRecordStoreQuery(const Store& store, const ZoneMap<D>& zones,
                                  const ValueSummary<D>& query,
                                  bool has_index, uint64_t tree_height,
                                  PlannerMode mode) {
  StoreShape shape;
  shape.num_cells = store.size();
  shape.cells_per_page = store.records_per_page();
  shape.store_pages = store.num_pages();
  return PricePlan(shape, PlanCostModel{}, mode, has_index,
                   [&](std::vector<PosRange>* runs, PagePattern* filter) {
                     filter->pages = tree_height;
                     filter->random_reads = tree_height;
                     return ProbeZoneMap(zones, query, runs);
                   });
}

/// The grid's access-path selector: QueryPlanner::Plan is PricePlan over
/// the CellStore's shape, probing the subfield table (I-Hilbert,
/// I-Quadtree) or the store's zone map (the other methods) — cheap, no
/// page I/O. Pure function of the immutable post-build index state, so
/// warm and cold runs of the same query read the same logical pages,
/// concurrent threads decide identically, and a reopened snapshot plans
/// exactly like the original.
class QueryPlanner {
 public:
  /// `subfields` may be null (methods without a partition). Both
  /// pointers must outlive the planner.
  QueryPlanner(const ValueIndex* index, const std::vector<Subfield>* subfields,
               PlanCostModel cost = PlanCostModel{});

  PhysicalPlan Plan(const ValueInterval& query,
                    PlannerMode mode = PlannerMode::kAuto) const;

  /// Share-vs-isolate costing for the executor's shared-scan grouping:
  /// should `candidate` join a group whose members' hull is
  /// `group_envelope`? Prices the widened envelope's single sweep (the
  /// group executes as one pass whose I/O is the envelope's plan)
  /// against the group and candidate running separately, using the same
  /// zero-I/O selectivity probes and disk model as Plan — deterministic
  /// and buffer-state independent, so grouping decisions are
  /// reproducible. Shares on ties: the fused sweep also saves the
  /// per-query fixed costs the model does not price.
  SharedScanDecision CostSharedScan(const ValueInterval& group_envelope,
                                    const ValueInterval& candidate,
                                    PlannerMode mode = PlannerMode::kAuto)
      const;

  /// The selectivity probe alone: predicted candidate runs + count for
  /// `query`. Exposed for tests and the CLI.
  uint64_t PredictCandidates(const ValueInterval& query,
                             std::vector<PosRange>* runs) const;

  StoreShape shape() const;
  const PlanCostModel& cost_model() const { return cost_; }

 private:
  Selectivity Probe(const ValueInterval& query,
                    std::vector<PosRange>* runs) const;
  PagePattern FilterPattern(const Selectivity& sel) const;

  const ValueIndex* index_;
  const std::vector<Subfield>* subfields_;
  PlanCostModel cost_;
};

}  // namespace fielddb

#endif  // FIELDDB_PLAN_PLANNER_H_
