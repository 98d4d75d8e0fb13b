#include "core/catalog.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>

namespace fielddb {

namespace {

// The separators `%s` skips: space, \t, \n, \v, \f, \r.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

Status InvalidValue(const std::string& path, std::string_view key) {
  return Status::Corruption("catalog " + path + ": invalid value for '" +
                            std::string(key) + "'");
}

Status CheckPageRange(const std::string& path, std::string_view key,
                      PageId first, uint64_t count, uint64_t num_pages) {
  if (count == 0 || (first < num_pages && count <= num_pages - first)) {
    return Status::OK();
  }
  return InvalidValue(path, key);
}

}  // namespace

CatalogWriter::CatalogWriter(std::string_view magic) : buf_(magic) {
  buf_.push_back('\n');
}

void CatalogWriter::IdLine(const std::vector<uint32_t>& ids) {
  if (ids.empty()) return;
  const size_t begin = buf_.size();
  for (const uint32_t id : ids) Append(id);
  buf_.erase(begin, 1);  // no separator before the first id
  buf_.push_back('\n');
}

Status CatalogWriter::Commit(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write " + path);
  bool ok = std::fwrite(buf_.data(), 1, buf_.size(), f) == buf_.size();
  ok = ok && std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;
  return ok ? Status::OK() : Status::IOError("flush failed for " + path);
}

Status CatalogReader::Load(std::string_view magic) {
  std::FILE* f = std::fopen(path_.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot read " + path_);
  struct stat st;
  if (::fstat(::fileno(f), &st) == 0 && st.st_size > 0) {
    data_.resize(static_cast<size_t>(st.st_size));
    data_.resize(std::fread(data_.data(), 1, data_.size(), f));
  }
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::IOError("cannot read " + path_);
  magic_ = NextToken();
  if (magic_ != magic) return Status::Corruption("bad magic in " + path_);
  return Status::OK();
}

std::string_view CatalogReader::NextToken() {
  while (pos_ < data_.size() && IsSpace(data_[pos_])) ++pos_;
  const size_t begin = pos_;
  while (pos_ < data_.size() && !IsSpace(data_[pos_])) ++pos_;
  return std::string_view(data_).substr(begin, pos_ - begin);
}

bool CatalogReader::NextKey() {
  if (!status_.ok()) return false;
  key_ = NextToken();
  return !key_.empty();
}

bool CatalogReader::Fail(std::string_view what, std::string_view key) {
  if (status_.ok()) {
    // A key from a corrupt file can be any length.
    status_ = Status::Corruption("catalog " + path_ + ": " +
                                 std::string(what) + " '" +
                                 std::string(key.substr(0, 64)) + "'");
  }
  return false;
}

bool CatalogReader::Check(bool ok, std::string_view key) {
  if (!ok) Fail("invalid value for", key);
  return status_.ok();
}

StatusOr<uint32_t> ReadCatalogEpoch(const std::string& path,
                                    std::string_view magic) {
  CatalogReader r(path);
  FIELDDB_RETURN_IF_ERROR(r.Load(magic));
  // No value token is the word "epoch", so a token scan finds the record
  // without knowing any other record's arity.
  uint32_t epoch = 0;
  while (r.NextKey()) {
    if (r.key() != "epoch") continue;
    if (!r.Read(&epoch)) return r.status();
    return epoch;
  }
  return Status::Corruption("catalog " + path + ": missing 'epoch'");
}

CatalogWriter BeginFieldCatalog(const CatalogKind& kind,
                                const StoreHeader& header) {
  CatalogWriter w(kind.magic);
  w.Line("page_size", header.page_size);
  w.Line("epoch", header.epoch);
  if (kind.slabbed) {
    w.Line("num_slabs", header.num_slabs);
  } else {
    w.Line("method", header.method);
  }
  w.Line("num_cells", header.num_cells);
  if (!kind.slabbed) w.Line("store_first_page", header.store_first_page);
  return w;
}

bool ReadHeaderKey(CatalogReader* r, const CatalogKind& kind,
                   StoreHeader* header) {
  // A failed read is sticky in the reader; the key is consumed either way.
  const std::string_view k = r->key();
  if (k == "page_size") {
    r->Read(&header->page_size);
  } else if (k == "epoch") {
    r->Read(&header->epoch);
  } else if (k == "num_cells") {
    r->Read(&header->num_cells);
  } else if (kind.slabbed && k == "num_slabs") {
    r->Read(&header->num_slabs);
  } else if (!kind.slabbed && k == "method") {
    r->Read(&header->method);
  } else if (!kind.slabbed && k == "store_first_page") {
    r->Read(&header->store_first_page);
  } else if (k == "tree") {
    r->Read(&header->tree.emplace());
  } else {
    return false;
  }
  return true;
}

void CheckHeader(CatalogReader* r, const CatalogKind& kind,
                 const StoreHeader& header) {
  r->Check(header.page_size > 0 && header.page_size <= (1u << 26),
           "page_size");
  if (kind.slabbed) {
    // A temporal field has at least one slab, whose store then bounds
    // num_cells against the page file.
    r->Check(header.num_slabs > 0 && header.num_slabs <= (1u << 20),
             "num_slabs");
  } else {
    r->Check(header.method >= 0 && header.method <= kind.max_method,
             "method");
  }
}

bool FiniteInterval(const ValueInterval& iv) {
  return std::isfinite(iv.min) && std::isfinite(iv.max) && iv.min <= iv.max;
}

Status CheckStorePages(const std::string& path, std::string_view key,
                       PageId first, uint64_t num_records,
                       uint32_t page_size, size_t record_size,
                       uint64_t num_pages) {
  const uint64_t per_page = page_size / record_size;
  if (per_page == 0) return InvalidValue(path, "page_size");
  return CheckPageRange(path, key, first,
                        num_records / per_page + (num_records % per_page != 0),
                        num_pages);
}

Status CheckTree(const std::string& path, std::string_view key,
                 const std::optional<RStarMeta>& tree, bool required,
                 uint64_t num_pages) {
  if (!tree.has_value()) {
    return required ? Status::Corruption("catalog " + path + ": missing " +
                                         std::string(key) + " meta")
                    : Status::OK();
  }
  return CheckPageRange(path, key, tree->root, 1, num_pages);
}

}  // namespace fielddb
