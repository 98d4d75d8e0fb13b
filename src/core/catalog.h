#ifndef FIELDDB_CORE_CATALOG_H_
#define FIELDDB_CORE_CATALOG_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/status.h"
#include "index/subfield.h"
#include "rtree/rstar_tree.h"
#include "storage/page.h"

namespace fielddb {

/// The catalog codec (DESIGN.md §16). Every snapshot catalog (grid,
/// temporal, vector and volume `.meta`, the router's `.router`) is a
/// magic token, then whitespace-separated `key value...` records:
/// integers in decimal, doubles as `%.17g` (reads back bit-exactly), an
/// RStarMeta as `root height size num_nodes`, a subfield as `start end`,
/// its hull's lower then upper bounds (`min max` for an interval, `ulo
/// vlo uhi vhi` for a box), then its size sum. The writer formats one
/// buffer and commits it durably.
class CatalogWriter {
 public:
  explicit CatalogWriter(std::string_view magic);

  /// Appends the line `key v1 v2 ...`.
  template <typename... V>
  void Line(std::string_view key, const V&... values) {
    buf_.append(key);
    AppendAll(values...);
    buf_.push_back('\n');
  }
  /// A key-less line of ids (the router's id map); none if empty.
  void IdLine(const std::vector<uint32_t>& ids);

  /// Checked write, fflush, fsync, checked fclose: durable before it
  /// can become a rename target.
  Status Commit(const std::string& path) const;

 private:
  template <typename T>
  void Append(T v) {
    char tmp[32];
    std::to_chars_result r;
    if constexpr (std::is_floating_point_v<T>) {
      // Specified to print exactly what printf's "%.17g" prints.
      r = std::to_chars(tmp, tmp + sizeof(tmp), v,
                        std::chars_format::general, 17);
    } else {
      r = std::to_chars(tmp, tmp + sizeof(tmp), v);
    }
    buf_.push_back(' ');
    buf_.append(tmp, r.ptr);
  }
  void Append(const RStarMeta& m) {
    AppendAll(m.root, m.height, m.size, m.num_nodes);
  }
  template <int D>
  void Append(const SubfieldOf<D>& sf) {
    AppendAll(sf.start, sf.end);
    for (int d = 0; d < D; ++d) Append(SummaryLo(sf.interval, d));
    for (int d = 0; d < D; ++d) Append(SummaryHi(sf.interval, d));
    Append(sf.sum_interval_sizes);
  }
  template <typename... V>
  void AppendAll(const V&... values) {
    (Append(values), ...);
  }

  std::string buf_;
};

/// Walks a catalog loaded whole: tokens are views into the one buffer
/// and values parse straight into their destinations, so nothing is
/// allocated per token. The first failure is sticky: NextKey returns
/// false and status() is kCorruption naming the catalog and the key.
class CatalogReader {
 public:
  explicit CatalogReader(std::string path) : path_(std::move(path)) {}
  CatalogReader(const CatalogReader&) = delete;
  CatalogReader& operator=(const CatalogReader&) = delete;

  /// kIOError when unreadable, kCorruption "bad magic in <path>" unless
  /// the first token (magic(), kept either way) is `magic`.
  Status Load(std::string_view magic);
  std::string_view magic() const { return magic_; }

  /// Advances to the next key; false at the end or once failed.
  bool NextKey();
  std::string_view key() const { return key_; }

  /// Parses the current record's next values into `out...`; false once
  /// the reader has failed.
  template <typename... T>
  bool Read(T*... out) {
    (void)(ReadValue(out) && ...);
    return status_.ok();
  }
  /// Reads a record that must come next: `key`, then its values.
  template <typename... T>
  bool Expect(std::string_view key, T*... out) {
    if (!NextKey() || key_ != key) return Fail("expected", key);
    return Read(out...);
  }

  /// Fails the reader with "invalid value for '<key>'" unless `ok`;
  /// parsing and validation chain on the one sticky status, and like
  /// Read it returns whether the reader is still good.
  bool Check(bool ok, std::string_view key);
  void FailUnknownKey() { Fail("unknown key", key_); }

  /// Bound on the values left (each takes a character and a separator);
  /// counts read from the file are checked against it before use.
  uint64_t values_left() const { return (data_.size() - pos_ + 1) / 2; }

  const Status& status() const { return status_; }

 private:
  std::string_view NextToken();
  bool Fail(std::string_view what, std::string_view key);

  template <typename T>
  bool ReadValue(T* out) {
    const std::string_view tok = NextToken();
    const char* const end = tok.data() + tok.size();
    const std::from_chars_result r = std::from_chars(tok.data(), end, *out);
    return (!tok.empty() && r.ec == std::errc() && r.ptr == end) ||
           Fail("malformed value for", key_);
  }
  bool ReadValue(RStarMeta* m) {
    return Read(&m->root, &m->height, &m->size, &m->num_nodes);
  }
  bool ReadValue(Subfield* sf) {
    return Read(&sf->start, &sf->end, &sf->interval.min, &sf->interval.max,
                &sf->sum_interval_sizes);
  }
  bool ReadValue(SubfieldOf<2>* sf) {
    return Read(&sf->start, &sf->end, &sf->interval.lo[0],
                &sf->interval.lo[1], &sf->interval.hi[0],
                &sf->interval.hi[1], &sf->sum_interval_sizes);
  }

  std::string path_;
  std::string data_;
  size_t pos_ = 0;
  std::string_view magic_;
  std::string_view key_;
  Status status_;
};

/// The `epoch` a catalog under `magic` records, rest unparsed.
StatusOr<uint32_t> ReadCatalogEpoch(const std::string& path,
                                    std::string_view magic);

/// --- Schema pieces shared by the field catalogs ---

struct StoreHeader {
  uint32_t page_size = 0;
  uint32_t epoch = 0;
  int method = 0;               // single-store kinds
  uint32_t num_slabs = 0;       // slabbed kinds
  uint64_t num_cells = 0;
  PageId store_first_page = 0;  // single-store kinds
  /// The value index's R*-tree; each kind writes its `tree` line itself.
  std::optional<RStarMeta> tree = std::nullopt;
};

struct CatalogKind {
  const char* magic;
  int max_method;
  /// One store per slab (temporal): `num_slabs` replaces `method` and
  /// `store_first_page` in the header.
  bool slabbed = false;
};

/// Magic, `page_size`, `epoch`, `method` or `num_slabs`, `num_cells`,
/// then (single-store) `store_first_page`.
CatalogWriter BeginFieldCatalog(const CatalogKind& kind,
                                const StoreHeader& header);
/// Consumes the current record if it is a header key of `kind` or
/// `tree`.
bool ReadHeaderKey(CatalogReader* r, const CatalogKind& kind,
                   StoreHeader* header);
void CheckHeader(CatalogReader* r, const CatalogKind& kind,
                 const StoreHeader& header);

/// `subfields N`, then N subfield rows under `row_key`.
template <int D>
struct SubfieldTable {
  uint64_t declared = 0;
  std::vector<SubfieldOf<D>> rows;
};
template <int D>
void WriteSubfields(CatalogWriter* w, std::string_view row_key,
                    std::span<const SubfieldOf<D>> rows) {
  w->Line("subfields", static_cast<uint64_t>(rows.size()));
  for (const SubfieldOf<D>& sf : rows) w->Line(row_key, sf);
}
/// Consumes the current record if it is `subfields` or `row_key`.
template <int D>
bool ReadSubfieldKey(CatalogReader* r, std::string_view row_key,
                     SubfieldTable<D>* table) {
  if (r->key() == "subfields") {
    r->Read(&table->declared);
  } else if (r->key() == row_key) {
    SubfieldOf<D> sf;
    if (r->Read(&sf)) table->rows.push_back(sf);
  } else {
    return false;
  }
  return true;
}
/// Both bounds finite and min <= max.
bool FiniteInterval(const ValueInterval& iv);
/// Validates a subfield table against a store of `num_cells` cells (else
/// names `row_key`): every row's hull has finite ordered bounds and a
/// finite size sum, and the rows partition the store — start_0 = 0,
/// start_{i+1} = end_i, end_last = num_cells, no row empty — when the
/// method keeps a partition (`partitioned`), or there are none when it
/// does not. Updates locate a cell's subfield by binary search over
/// this partition.
template <int D>
void CheckSubfieldRows(CatalogReader* r, std::string_view row_key,
                       const std::vector<SubfieldOf<D>>& rows,
                       uint64_t num_cells, bool partitioned) {
  uint64_t covered = 0;
  for (const SubfieldOf<D>& sf : rows) {
    bool finite = std::isfinite(sf.sum_interval_sizes);
    for (int d = 0; d < D; ++d) {
      finite = finite && FiniteInterval(ValueInterval{
                             SummaryLo(sf.interval, d),
                             SummaryHi(sf.interval, d)});
    }
    if (!r->Check(finite && sf.start == covered && sf.start < sf.end,
                  row_key)) {
      return;
    }
    covered = sf.end;
  }
  r->Check(covered == (partitioned ? num_cells : 0), row_key);
}

/// Page-range checks against the opened page file, run before Open
/// sizes anything from the catalog's counts; kCorruption names `key`.
/// The pages `num_records` records of `record_size` bytes fill from
/// `first` exist.
Status CheckStorePages(const std::string& path, std::string_view key,
                       PageId first, uint64_t num_records,
                       uint32_t page_size, size_t record_size,
                       uint64_t num_pages);
/// R*-tree `key` is present when `required`, its root page in range.
Status CheckTree(const std::string& path, std::string_view key,
                 const std::optional<RStarMeta>& tree, bool required,
                 uint64_t num_pages);

}  // namespace fielddb

#endif  // FIELDDB_CORE_CATALOG_H_
