// Seeded mutation sweep over real catalogs: a grid (I-Hilbert with the
// spatial tree), temporal, vector and volume snapshot and a 4-shard
// router are saved, then each catalog is bit-flipped, truncated at every
// 1/64th of its length, has tokens deleted and duplicated, and has lines
// spliced in from the other catalogs, and has numbers swapped for
// boundary values. Every Open must either fail with
// kCorruption or kIOError, or succeed into a state that Scrub accepts
// (the grid and every router shard) or that closes cleanly (the
// extension engines, which have no Scrub). No mutation may crash, and
// none may make Open request a single allocation larger than a small
// multiple of the snapshot's size on disk.

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <string>
#include <vector>

#include "catalog_fixtures.h"
#include "common/rng.h"

namespace {

// Allocation accounting while a mutated Open runs: the largest single
// request, and a hard cap above which the request throws instead of
// reaching the allocator (so an allocation bomb fails the test rather
// than the machine).
std::atomic<bool> g_armed{false};
std::atomic<size_t> g_largest{0};
std::atomic<size_t> g_cap{0};

void* CountedAlloc(size_t n) {
  if (g_armed.load(std::memory_order_relaxed)) {
    size_t prev = g_largest.load(std::memory_order_relaxed);
    while (n > prev && !g_largest.compare_exchange_weak(prev, n)) {
    }
    if (n > g_cap.load(std::memory_order_relaxed)) throw std::bad_alloc();
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return CountedAlloc(n); }
void* operator new[](size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace fielddb {
namespace {

using catalog_fixtures::Fixture;
using catalog_fixtures::Kind;

/// A mutated Open may allocate at most this multiple of the snapshot's
/// bytes on disk in one request (plus a fixed allowance for the
/// process-wide metrics and executor set-up a first Open performs).
constexpr size_t kAllocFactor = 4;
constexpr size_t kAllocSlack = 256 * 1024;

uint64_t SnapshotBytes(const Fixture& f) {
  uint64_t total = 0;
  const std::filesystem::path dir =
      std::filesystem::path(f.prefix).parent_path();
  const std::string stem = std::filesystem::path(f.prefix).filename();
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string name = entry.path().filename();
    if (name.rfind(stem + ".", 0) == 0) total += entry.file_size();
  }
  return total;
}

bool AcceptedError(const Status& s) {
  return s.code() == StatusCode::kCorruption ||
         s.code() == StatusCode::kIOError;
}

std::string ScrubProblem(FieldDatabase& db) {
  FieldDatabase::ScrubReport report;
  const Status s = db.Scrub(&report);
  if (!s.ok()) return "scrub failed: " + s.ToString();
  return report.clean() ? "" : "scrub found corrupt pages";
}

/// Opens a database of type `Db` at `prefix` with a small pool and runs
/// `check` on it; returns an empty string when the outcome is
/// acceptable. `*opened` tells whether Open succeeded.
template <typename Db, typename Check>
std::string OpenWith(const std::string& prefix, bool* opened, Check check) {
  typename Db::OpenOptions oo;
  oo.pool_pages = 16;
  auto db = Db::Open(prefix, oo);
  *opened = db.ok();
  if (!db.ok()) return AcceptedError(db.status()) ? "" : db.status().ToString();
  return check(**db);
}

template <typename Db>
std::string CloseProblem(Db& db) {
  const Status s = db.Close();
  return s.ok() ? "" : "close failed: " + s.ToString();
}

/// Opens `f` over whatever its catalog holds now and checks the outcome.
std::string OpenAndCheck(const Fixture& f, bool* opened) {
  switch (f.kind) {
    case Kind::kGrid:
      return OpenWith<FieldDatabase>(f.prefix, opened, ScrubProblem);
    case Kind::kTemporal:
      return OpenWith<TemporalFieldDatabase>(
          f.prefix, opened, CloseProblem<TemporalFieldDatabase>);
    case Kind::kVector:
      return OpenWith<VectorFieldDatabase>(f.prefix, opened,
                                           CloseProblem<VectorFieldDatabase>);
    case Kind::kVolume:
      return OpenWith<VolumeFieldDatabase>(f.prefix, opened,
                                           CloseProblem<VolumeFieldDatabase>);
    case Kind::kRouter:
      return OpenWith<ShardRouter>(f.prefix, opened, [](ShardRouter& router) {
        for (size_t k = 0; k < router.num_shards(); ++k) {
          const std::string problem = ScrubProblem(router.shard(k).db());
          if (!problem.empty()) return problem;
        }
        return CloseProblem(router);
      });
  }
  return "unknown kind";
}

/// Whitespace-separated tokens of `text` as [begin, end) offsets.
std::vector<std::pair<size_t, size_t>> Tokens(const std::string& text) {
  std::vector<std::pair<size_t, size_t>> out;
  size_t i = 0;
  const auto space = [&](size_t k) {
    return std::isspace(static_cast<unsigned char>(text[k])) != 0;
  };
  while (i < text.size()) {
    while (i < text.size() && space(i)) ++i;
    const size_t begin = i;
    while (i < text.size() && !space(i)) ++i;
    if (i > begin) out.emplace_back(begin, i);
  }
  return out;
}

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> out;
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t eol = text.find('\n', pos);
    const size_t end = eol == std::string::npos ? text.size() : eol + 1;
    out.push_back(text.substr(pos, end - pos));
    pos = end;
  }
  return out;
}

/// The seeded mutations of one catalog, each with a label for failures.
std::vector<std::pair<std::string, std::string>> Mutations(
    const std::string& original, const std::vector<std::string>& others,
    uint64_t seed) {
  std::vector<std::pair<std::string, std::string>> out;
  Rng rng(seed);
  for (int i = 0; i < 256; ++i) {
    std::string m = original;
    const size_t pos = rng.NextBounded(m.size());
    const int bit = static_cast<int>(rng.NextBounded(8));
    m[pos] = static_cast<char>(m[pos] ^ (1 << bit));
    out.emplace_back("flip byte " + std::to_string(pos) + " bit " +
                         std::to_string(bit),
                     std::move(m));
  }
  for (size_t k = 0; k < 64; ++k) {
    const size_t len = original.size() * k / 64;
    out.emplace_back("truncate to " + std::to_string(len),
                     original.substr(0, len));
  }
  const auto tokens = Tokens(original);
  for (int i = 0; i < 64; ++i) {
    const auto [b, e] = tokens[rng.NextBounded(tokens.size())];
    std::string del = original;
    del.erase(b, e - b);
    out.emplace_back("delete token at " + std::to_string(b), std::move(del));
    std::string dup = original;
    dup.insert(b, original.substr(b, e - b) + " ");
    out.emplace_back("duplicate token at " + std::to_string(b),
                     std::move(dup));
  }
  const std::vector<std::string> lines = Lines(original);
  for (int i = 0; i < 64; ++i) {
    const std::vector<std::string> donor_lines =
        Lines(others[rng.NextBounded(others.size())]);
    const std::string& donor =
        donor_lines[rng.NextBounded(donor_lines.size())];
    const size_t at = rng.NextBounded(lines.size());
    std::string inserted, replaced;
    for (size_t l = 0; l < lines.size(); ++l) {
      if (l == at) inserted += donor;
      inserted += lines[l];
      replaced += l == at ? donor : lines[l];
    }
    out.emplace_back("splice line before " + std::to_string(at),
                     std::move(inserted));
    out.emplace_back("replace line " + std::to_string(at),
                     std::move(replaced));
  }
  // Number tampering: the header and the first rows' values (every count
  // and page id), plus a sample of the rest, each swapped for values just
  // off and far off its own, including counts the page file can almost
  // hold (which run store scans into other structures' pages).
  std::vector<std::pair<size_t, size_t>> numbers;
  for (const auto& t : tokens) {
    const char c = original[t.first];
    if ((c >= '0' && c <= '9') || c == '-') numbers.push_back(t);
  }
  for (size_t i = 0; i < numbers.size() && i < 80; ++i) {
    const auto [b, e] = i < 48 ? numbers[i]
                               : numbers[rng.NextBounded(numbers.size())];
    const std::string value = original.substr(b, e - b);
    const double v = std::strtod(value.c_str(), nullptr);
    for (const std::string& repl :
         {std::string("0"), std::string("1"), std::to_string(v + 1),
          std::to_string(static_cast<uint64_t>(std::fabs(v)) * 2 + 1),
          std::to_string(static_cast<uint64_t>(std::fabs(v)) * 16 + 3),
          std::string("4294967295"), std::string("4294967296"),
          std::string("4611686018427387904"),
          std::string("18446744073709551615"), std::string("-1"),
          std::string("nan"), std::string("1e308")}) {
      std::string m = original;
      m.replace(b, e - b, repl);
      out.emplace_back("set value at " + std::to_string(b) + " to " + repl,
                       std::move(m));
    }
  }
  return out;
}

TEST(CatalogMutationTest, EveryMutationIsRejectedOrOpensClean) {
  const std::string dir = ::testing::TempDir() + "/catalog_mutation";
  std::filesystem::create_directories(dir);
  StatusOr<std::vector<Fixture>> all = catalog_fixtures::SaveAllFixtures(dir);
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  std::vector<Fixture> targets;
  std::vector<std::string> originals;
  for (const Fixture& f : *all) {
    if (f.name == "grid_i_hilbert_spatial" || f.name == "temporal" ||
        f.name == "vector_i_hilbert" || f.name == "volume_i_hilbert" ||
        f.name == "router_4") {
      targets.push_back(f);
    }
    originals.push_back(catalog_fixtures::ReadFileBytes(f.catalog));
  }
  ASSERT_EQ(targets.size(), 5u);

  for (size_t t = 0; t < targets.size(); ++t) {
    const Fixture& f = targets[t];
    const std::string original = catalog_fixtures::ReadFileBytes(f.catalog);
    bool opened = false;
    ASSERT_EQ(OpenAndCheck(f, &opened), "") << f.name;
    ASSERT_TRUE(opened) << f.name << " does not open unmutated";
    const size_t bound = kAllocFactor * SnapshotBytes(f) + kAllocSlack;
    int rejected = 0;
    int reopened = 0;
    for (const auto& [label, bytes] : Mutations(original, originals, t + 1)) {
      catalog_fixtures::WriteFileBytes(f.catalog, bytes);
      g_largest.store(0);
      g_cap.store(64 * bound);
      g_armed.store(true);
      std::string problem;
      try {
        problem = OpenAndCheck(f, &opened);
      } catch (const std::bad_alloc&) {
        problem = "allocation above the hard cap";
      }
      g_armed.store(false);
      if (g_largest.load() > bound) {
        problem += " largest allocation " + std::to_string(g_largest.load()) +
                   " > bound " + std::to_string(bound);
      }
      EXPECT_EQ(problem, "") << f.name << ": " << label;
      ++(opened ? reopened : rejected);
    }
    catalog_fixtures::WriteFileBytes(f.catalog, original);
    std::printf("%s: %d mutations rejected, %d opened clean\n",
                f.name.c_str(), rejected, reopened);
  }
  for (const Fixture& f : *all) catalog_fixtures::RemoveSnapshot(f);
}

// ---------------------------------------------------------------------------
// Targeted edits the random sweep only hits by chance: subfield rows that
// no longer tile the store, and a value-tree root that names a store page.

Status OpenStatus(const Fixture& f) {
  switch (f.kind) {
    case Kind::kGrid:
      return FieldDatabase::Open(f.prefix).status();
    case Kind::kTemporal:
      return TemporalFieldDatabase::Open(f.prefix).status();
    case Kind::kVector:
      return VectorFieldDatabase::Open(f.prefix).status();
    case Kind::kVolume:
      return VolumeFieldDatabase::Open(f.prefix).status();
    case Kind::kRouter:
      return ShardRouter::Open(f.prefix, ShardRouter::OpenOptions{}).status();
  }
  return Status::Internal("unknown kind");
}

std::vector<std::string> Fields(const std::string& line) {
  std::vector<std::string> out;
  for (const auto& [b, e] : Tokens(line)) out.push_back(line.substr(b, e - b));
  return out;
}

/// Applies `edit` to the fields of the `which`-th line whose key is `key`
/// (negative `which` counts from the last such line).
template <typename Edit>
std::string EditLine(const std::string& catalog, const std::string& key,
                     int which, Edit edit) {
  std::vector<std::string> lines = Lines(catalog);
  std::vector<size_t> rows;
  for (size_t l = 0; l < lines.size(); ++l) {
    const std::vector<std::string> fields = Fields(lines[l]);
    if (!fields.empty() && fields[0] == key) rows.push_back(l);
  }
  if (rows.empty()) return catalog;
  const size_t row =
      which < 0 ? rows[rows.size() - static_cast<size_t>(-which)]
                : rows[static_cast<size_t>(which)];
  std::vector<std::string> fields = Fields(lines[row]);
  edit(&fields);
  std::string edited;
  for (const std::string& field : fields) {
    edited += (edited.empty() ? "" : " ") + field;
  }
  lines[row] = edited + "\n";
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

/// Adds `delta` to numeric field `index` of a line's fields.
auto AddTo(size_t index, int64_t delta) {
  return [index, delta](std::vector<std::string>* fields) {
    (*fields)[index] = std::to_string(std::stoll((*fields)[index]) + delta);
  };
}

TEST(CatalogPartitionTest, SubfieldRowsThatDoNotTileTheStoreFailToOpen) {
  const std::string dir = ::testing::TempDir() + "/catalog_partition";
  std::filesystem::create_directories(dir);
  StatusOr<std::vector<Fixture>> all = catalog_fixtures::SaveAllFixtures(dir);
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  const std::pair<const char*, const char*> targets[] = {
      {"grid_i_hilbert", "sf"},    {"grid_i_quadtree", "sf"},
      {"temporal", "tsf"},         {"vector_i_hilbert", "sfv"},
      {"volume_i_hilbert", "sf"}};
  int checked = 0;
  for (const Fixture& f : *all) {
    for (const auto& [name, key] : targets) {
      if (f.name != name) continue;
      const std::string original = catalog_fixtures::ReadFileBytes(f.catalog);
      ASSERT_TRUE(OpenStatus(f).ok()) << f.name;
      // `tsf` rows lead with their slab: start and end sit one further.
      const size_t start = std::string(key) == "tsf" ? 2 : 1;
      const std::pair<std::string, std::string> edits[] = {
          {"shrunk last row", EditLine(original, key, -1, AddTo(start + 1, -1))},
          {"gap before the second row",
           EditLine(original, key, 1, AddTo(start, 1))}};
      for (const auto& [label, bytes] : edits) {
        ASSERT_NE(bytes, original) << f.name << ": " << label;
        catalog_fixtures::WriteFileBytes(f.catalog, bytes);
        EXPECT_EQ(OpenStatus(f).code(), StatusCode::kCorruption)
            << f.name << ": " << label;
        ++checked;
      }
      catalog_fixtures::WriteFileBytes(f.catalog, original);
    }
  }
  EXPECT_EQ(checked, 10);
  for (const Fixture& f : *all) catalog_fixtures::RemoveSnapshot(f);
}

TEST(CatalogPartitionTest, TreeRootNamingAStorePageFailsToOpen) {
  const std::string dir = ::testing::TempDir() + "/catalog_tree_root";
  std::filesystem::create_directories(dir);
  StatusOr<std::vector<Fixture>> all = catalog_fixtures::SaveAllFixtures(dir);
  ASSERT_TRUE(all.ok()) << all.status().ToString();

  int checked = 0;
  for (const Fixture& f : *all) {
    if (f.name != "grid_i_all" && f.name != "grid_i_hilbert" &&
        f.name != "grid_i_quadtree" && f.name != "temporal" &&
        f.name != "vector_i_hilbert" && f.name != "volume_i_hilbert") {
      continue;
    }
    const std::string original = catalog_fixtures::ReadFileBytes(f.catalog);
    ASSERT_TRUE(OpenStatus(f).ok()) << f.name;
    // The store's first page: `store_first_page N`, or slab 0's `slab 0 N`.
    std::string store_page;
    for (const std::string& line : Lines(original)) {
      const std::vector<std::string> fields = Fields(line);
      if (fields.size() == 2 && fields[0] == "store_first_page") {
        store_page = fields[1];
      } else if (fields.size() == 3 && fields[0] == "slab" &&
                 fields[1] == "0") {
        store_page = fields[2];
      }
    }
    ASSERT_FALSE(store_page.empty()) << f.name;
    const std::string edited =
        EditLine(original, "tree", 0, [&](std::vector<std::string>* fields) {
          (*fields)[1] = store_page;
        });
    ASSERT_NE(edited, original) << f.name;
    catalog_fixtures::WriteFileBytes(f.catalog, edited);
    EXPECT_EQ(OpenStatus(f).code(), StatusCode::kCorruption) << f.name;
    catalog_fixtures::WriteFileBytes(f.catalog, original);
    ++checked;
  }
  EXPECT_EQ(checked, 6);
  for (const Fixture& f : *all) catalog_fixtures::RemoveSnapshot(f);
}

}  // namespace
}  // namespace fielddb
