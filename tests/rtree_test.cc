#include "rtree/rstar_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.h"
#include "storage/page_file.h"

namespace fielddb {
namespace {

template <int Dim>
Box<Dim> RandomBox(Rng& rng, double max_extent) {
  Box<Dim> b;
  for (int d = 0; d < Dim; ++d) {
    const double lo = rng.NextDouble();
    b.lo[d] = lo;
    b.hi[d] = lo + rng.NextDouble() * max_extent;
  }
  return b;
}

template <int Dim>
std::vector<uint64_t> BruteForceSearch(
    const std::vector<RTreeEntry<Dim>>& entries, const Box<Dim>& query) {
  std::vector<uint64_t> hits;
  for (const auto& e : entries) {
    if (e.box.Intersects(query)) hits.push_back(e.a);
  }
  std::sort(hits.begin(), hits.end());
  return hits;
}

template <int Dim>
std::vector<uint64_t> TreeSearch(const RStarTree<Dim>& tree,
                                 const Box<Dim>& query) {
  std::vector<uint64_t> hits;
  EXPECT_TRUE(tree.Search(query, [&](const RTreeEntry<Dim>& e) {
                    hits.push_back(e.a);
                    return true;
                  }).ok());
  std::sort(hits.begin(), hits.end());
  return hits;
}

TEST(RStarTreeTest, EmptyTreeSearchFindsNothing) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), 0u);
  EXPECT_EQ(tree->height(), 1u);
  Box<2> q;
  q.lo = {0, 0};
  q.hi = {1, 1};
  EXPECT_TRUE(TreeSearch(*tree, q).empty());
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RStarTreeTest, SingleInsertAndHit) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Box<2> b;
  b.lo = {0.2, 0.2};
  b.hi = {0.4, 0.4};
  ASSERT_TRUE(tree->Insert(b, 42).ok());
  EXPECT_EQ(tree->size(), 1u);

  Box<2> hit_q;
  hit_q.lo = {0.3, 0.3};
  hit_q.hi = {0.3, 0.3};
  EXPECT_EQ(TreeSearch(*tree, hit_q), std::vector<uint64_t>{42});

  Box<2> miss_q;
  miss_q.lo = {0.5, 0.5};
  miss_q.hi = {0.9, 0.9};
  EXPECT_TRUE(TreeSearch(*tree, miss_q).empty());
}

TEST(RStarTreeTest, RejectsEmptyBox) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->Insert(Box<1>::Empty(), 0).code(),
            StatusCode::kInvalidArgument);
}

TEST(RStarTreeTest, PayloadWordsRoundTrip) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Box<1> b;
  b.lo = {1};
  b.hi = {2};
  ASSERT_TRUE(tree->Insert(b, 7, 13).ok());
  bool seen = false;
  ASSERT_TRUE(tree->Search(b, [&](const RTreeEntry<1>& e) {
                    EXPECT_EQ(e.a, 7u);
                    EXPECT_EQ(e.b, 13u);
                    seen = true;
                    return true;
                  }).ok());
  EXPECT_TRUE(seen);
}

// Cross-checks tree search against brute force over many random queries,
// for 1-D and 2-D and for both insertion and bulk-loading.
struct RandomizedCase {
  int num_entries;
  bool bulk;
  uint64_t seed;
};

class RandomizedRTree1DTest
    : public ::testing::TestWithParam<RandomizedCase> {};

TEST_P(RandomizedRTree1DTest, MatchesBruteForce) {
  const auto [n, bulk, seed] = GetParam();
  Rng rng(seed);
  MemPageFile file;
  BufferPool pool(&file, 256);

  std::vector<RTreeEntry<1>> entries(n);
  for (int i = 0; i < n; ++i) {
    entries[i].box = RandomBox<1>(rng, 0.05);
    entries[i].a = i;
  }

  StatusOr<RStarTree<1>> tree = [&] {
    if (bulk) {
      auto sorted = entries;
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& x, const auto& y) {
                  return x.box.lo[0] < y.box.lo[0];
                });
      return RStarTree<1>::BulkLoad(&pool, sorted);
    }
    auto t = RStarTree<1>::Create(&pool);
    EXPECT_TRUE(t.ok());
    for (const auto& e : entries) {
      EXPECT_TRUE(t->Insert(e.box, e.a).ok());
    }
    return t;
  }();
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->size(), static_cast<uint64_t>(n));
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (int qi = 0; qi < 50; ++qi) {
    const Box<1> q = RandomBox<1>(rng, 0.2);
    EXPECT_EQ(TreeSearch(*tree, q), BruteForceSearch(entries, q))
        << "query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedRTree1DTest,
    ::testing::Values(RandomizedCase{10, false, 1},
                      RandomizedCase{300, false, 2},
                      RandomizedCase{2000, false, 3},
                      RandomizedCase{300, true, 4},
                      RandomizedCase{5000, true, 5}),
    [](const ::testing::TestParamInfo<RandomizedCase>& info) {
      return std::string(info.param.bulk ? "bulk" : "insert") +
             std::to_string(info.param.num_entries);
    });

class RandomizedRTree2DTest
    : public ::testing::TestWithParam<RandomizedCase> {};

TEST_P(RandomizedRTree2DTest, MatchesBruteForce) {
  const auto [n, bulk, seed] = GetParam();
  Rng rng(seed);
  MemPageFile file;
  BufferPool pool(&file, 256);

  std::vector<RTreeEntry<2>> entries(n);
  for (int i = 0; i < n; ++i) {
    entries[i].box = RandomBox<2>(rng, 0.1);
    entries[i].a = i;
  }

  StatusOr<RStarTree<2>> tree = [&] {
    if (bulk) {
      return RStarTree<2>::BulkLoad(&pool, entries);
    }
    auto t = RStarTree<2>::Create(&pool);
    EXPECT_TRUE(t.ok());
    for (const auto& e : entries) {
      EXPECT_TRUE(t->Insert(e.box, e.a).ok());
    }
    return t;
  }();
  ASSERT_TRUE(tree.ok());
  ASSERT_TRUE(tree->CheckInvariants().ok());

  for (int qi = 0; qi < 50; ++qi) {
    const Box<2> q = RandomBox<2>(rng, 0.3);
    EXPECT_EQ(TreeSearch(*tree, q), BruteForceSearch(entries, q))
        << "query " << qi;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RandomizedRTree2DTest,
    ::testing::Values(RandomizedCase{10, false, 11},
                      RandomizedCase{500, false, 12},
                      RandomizedCase{3000, false, 13},
                      RandomizedCase{3000, true, 14}),
    [](const ::testing::TestParamInfo<RandomizedCase>& info) {
      return std::string(info.param.bulk ? "bulk" : "insert") +
             std::to_string(info.param.num_entries);
    });

TEST(RStarTreeTest, GrowsBeyondOneLevel) {
  MemPageFile file(512);  // small pages force low fan-out
  BufferPool pool(&file, 256);
  auto tree = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(tree->Insert(RandomBox<2>(rng, 0.02), i).ok());
  }
  EXPECT_GT(tree->height(), 2u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

TEST(RStarTreeTest, DeleteRemovesExactEntry) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Box<1> b;
  b.lo = {0.5};
  b.hi = {0.6};
  ASSERT_TRUE(tree->Insert(b, 1).ok());
  ASSERT_TRUE(tree->Insert(b, 2).ok());  // same box, different payload
  ASSERT_TRUE(tree->Delete(b, 1).ok());
  EXPECT_EQ(tree->size(), 1u);
  EXPECT_EQ(TreeSearch(*tree, b), std::vector<uint64_t>{2});
  EXPECT_EQ(tree->Delete(b, 99).code(), StatusCode::kNotFound);
}

TEST(RStarTreeTest, DeleteManyCondensesTree) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  auto tree = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(21);
  std::vector<RTreeEntry<2>> entries(400);
  for (int i = 0; i < 400; ++i) {
    entries[i].box = RandomBox<2>(rng, 0.05);
    entries[i].a = i;
    ASSERT_TRUE(tree->Insert(entries[i].box, i).ok());
  }
  const uint32_t height_full = tree->height();
  EXPECT_GT(height_full, 1u);

  // Delete 90% and verify correctness against brute force on the rest.
  for (int i = 0; i < 360; ++i) {
    ASSERT_TRUE(tree->Delete(entries[i].box, entries[i].a).ok()) << i;
    if (i % 60 == 0) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "after delete " << i;
    }
  }
  EXPECT_EQ(tree->size(), 40u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  EXPECT_LE(tree->height(), height_full);

  const std::vector<RTreeEntry<2>> rest(entries.begin() + 360,
                                        entries.end());
  for (int qi = 0; qi < 30; ++qi) {
    const Box<2> q = RandomBox<2>(rng, 0.3);
    EXPECT_EQ(TreeSearch(*tree, q), BruteForceSearch(rest, q));
  }
}

TEST(RStarTreeTest, DeleteEverythingLeavesEmptyWorkingTree) {
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(33);
  std::vector<Box<1>> boxes(100);
  for (int i = 0; i < 100; ++i) {
    boxes[i] = RandomBox<1>(rng, 0.1);
    ASSERT_TRUE(tree->Insert(boxes[i], i).ok());
  }
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Delete(boxes[i], i).ok());
  }
  EXPECT_EQ(tree->size(), 0u);
  ASSERT_TRUE(tree->CheckInvariants().ok());
  // And it is reusable.
  ASSERT_TRUE(tree->Insert(boxes[0], 7).ok());
  EXPECT_EQ(TreeSearch(*tree, boxes[0]), std::vector<uint64_t>{7});
}

TEST(RStarTreeTest, SearchEarlyTermination) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Box<1> b;
  b.lo = {0};
  b.hi = {1};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(tree->Insert(b, i).ok());
  }
  int visited = 0;
  ASSERT_TRUE(tree->Search(b, [&](const RTreeEntry<1>&) {
                    return ++visited < 5;
                  }).ok());
  EXPECT_EQ(visited, 5);
}

TEST(RStarTreeTest, AttachReopensTree) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  RStarMeta meta;
  Rng rng(55);
  std::vector<RTreeEntry<1>> entries(200);
  {
    auto tree = RStarTree<1>::Create(&pool);
    ASSERT_TRUE(tree.ok());
    for (int i = 0; i < 200; ++i) {
      entries[i].box = RandomBox<1>(rng, 0.05);
      entries[i].a = i;
      ASSERT_TRUE(tree->Insert(entries[i].box, i).ok());
    }
    meta = tree->meta();
  }
  // A fresh pool over the same file, attached via persisted meta.
  ASSERT_TRUE(pool.Flush().ok());
  BufferPool pool2(&file, 256);
  auto attached = RStarTree<1>::Attach(&pool2, meta);
  ASSERT_TRUE(attached.ok()) << attached.status().ToString();
  const RStarTree<1>& reopened = *attached;
  ASSERT_TRUE(reopened.CheckInvariants().ok());
  for (int qi = 0; qi < 20; ++qi) {
    const Box<1> q = RandomBox<1>(rng, 0.2);
    EXPECT_EQ(TreeSearch(reopened, q), BruteForceSearch(entries, q));
  }
}

TEST(RStarTreeTest, AttachRejectsAPageThatIsNotTheRoot) {
  MemPageFile file;
  BufferPool pool(&file, 256);
  Rng rng(19);
  std::vector<RTreeEntry<1>> entries(400);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].box = RandomBox<1>(rng, 0.05);
    entries[i].a = i;
  }
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  const RStarMeta meta = tree->meta();
  ASSERT_GT(meta.height, 1u);
  ASSERT_TRUE(RStarTree<1>::Attach(&pool, meta).ok());

  // The right root page under the wrong height.
  for (const uint32_t height : {0u, meta.height - 1, meta.height + 1}) {
    RStarMeta wrong = meta;
    wrong.height = height;
    EXPECT_EQ(RStarTree<1>::Attach(&pool, wrong).status().code(),
              StatusCode::kCorruption)
        << "height " << height;
  }
  // Another node of the tree (a leaf) named as the root.
  PageId leaf = kInvalidPageId;
  for (PageId p = 0; p < file.NumPages() && leaf == kInvalidPageId; ++p) {
    PinnedPage node;
    ASSERT_TRUE(pool.Fetch(p, &node).ok());
    if (p != meta.root && node.page().ReadAt<uint32_t>(0) == 0) leaf = p;
  }
  ASSERT_NE(leaf, kInvalidPageId);
  RStarMeta leaf_as_root = meta;
  leaf_as_root.root = leaf;
  EXPECT_EQ(RStarTree<1>::Attach(&pool, leaf_as_root).status().code(),
            StatusCode::kCorruption);
  // A page holding no node at all: level and count are record bytes.
  PinnedPage pin;
  StatusOr<PageId> junk = pool.Allocate(&pin);
  ASSERT_TRUE(junk.ok());
  for (uint32_t off = 0; off < 64; off += 8) {
    pin.MutablePage().WriteAt<double>(off, 0.37 + off);
  }
  pin.Release();
  RStarMeta junk_root = meta;
  junk_root.root = *junk;
  EXPECT_EQ(RStarTree<1>::Attach(&pool, junk_root).status().code(),
            StatusCode::kCorruption);
}

TEST(RStarTreeTest, BulkLoadEmptyAndTiny) {
  MemPageFile file;
  BufferPool pool(&file, 64);
  auto empty = RStarTree<1>::BulkLoad(&pool, {});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->size(), 0u);
  EXPECT_TRUE(empty->CheckInvariants().ok());

  std::vector<RTreeEntry<1>> one(1);
  one[0].box.lo = {0.1};
  one[0].box.hi = {0.2};
  one[0].a = 5;
  auto tiny = RStarTree<1>::BulkLoad(&pool, one);
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->size(), 1u);
  EXPECT_EQ(tiny->height(), 1u);
  EXPECT_TRUE(tiny->CheckInvariants().ok());
}

TEST(RStarTreeTest, BulkLoadPagesAreDenser) {
  // Packing should use fewer nodes than one-at-a-time insertion.
  Rng rng(77);
  std::vector<RTreeEntry<1>> entries(5000);
  for (int i = 0; i < 5000; ++i) {
    entries[i].box = RandomBox<1>(rng, 0.01);
    entries[i].a = i;
  }
  auto sorted = entries;
  std::sort(sorted.begin(), sorted.end(), [](const auto& x, const auto& y) {
    return x.box.lo[0] < y.box.lo[0];
  });

  MemPageFile f1;
  BufferPool p1(&f1, 256);
  auto bulk = RStarTree<1>::BulkLoad(&p1, sorted);
  ASSERT_TRUE(bulk.ok());

  MemPageFile f2;
  BufferPool p2(&f2, 256);
  auto inserted = RStarTree<1>::Create(&p2);
  ASSERT_TRUE(inserted.ok());
  for (const auto& e : entries) {
    ASSERT_TRUE(inserted->Insert(e.box, e.a).ok());
  }
  EXPECT_LT(bulk->num_nodes(), inserted->num_nodes());
}

TEST(RStarTreeTest, FanOutMatchesPageSize) {
  MemPageFile file(4096);
  BufferPool pool(&file, 16);
  auto tree1 = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree1.ok());
  // Entry<1> = 2 doubles + 2 u64 = 32 bytes; (4096-16)/32 = 127.
  EXPECT_EQ(tree1->max_entries(), 127u);
  auto tree2 = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree2.ok());
  // Entry<2> = 4 doubles + 2 u64 = 48 bytes; (4096-16)/48 = 85.
  EXPECT_EQ(tree2->max_entries(), 85u);
}

TEST(RStarTreeTest, RandomInsertDeleteFuzz) {
  // Interleaved random inserts and deletes, cross-checked against a
  // brute-force shadow set at every step batch.
  MemPageFile file(512);
  BufferPool pool(&file, 256);
  auto tree = RStarTree<2>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Rng rng(101);
  std::vector<RTreeEntry<2>> shadow;
  uint64_t next_payload = 0;

  for (int step = 0; step < 1500; ++step) {
    const bool insert = shadow.empty() || rng.NextDouble() < 0.6;
    if (insert) {
      RTreeEntry<2> e;
      e.box = RandomBox<2>(rng, 0.05);
      e.a = next_payload++;
      ASSERT_TRUE(tree->Insert(e.box, e.a).ok());
      shadow.push_back(e);
    } else {
      const size_t victim = rng.NextBounded(shadow.size());
      ASSERT_TRUE(
          tree->Delete(shadow[victim].box, shadow[victim].a).ok());
      shadow.erase(shadow.begin() + victim);
    }
    if (step % 250 == 249) {
      ASSERT_TRUE(tree->CheckInvariants().ok()) << "step " << step;
      for (int qi = 0; qi < 5; ++qi) {
        const Box<2> q = RandomBox<2>(rng, 0.4);
        ASSERT_EQ(TreeSearch(*tree, q), BruteForceSearch(shadow, q))
            << "step " << step;
      }
    }
  }
  EXPECT_EQ(tree->size(), shadow.size());
}

TEST(RStarTreeTest, HeightGrowsLogarithmically) {
  MemPageFile file;  // 4 KB pages: 1-D fan-out 127
  BufferPool pool(&file, 1 << 14);
  Rng rng(55);
  std::vector<RTreeEntry<1>> entries(20000);
  for (size_t i = 0; i < entries.size(); ++i) {
    entries[i].box = RandomBox<1>(rng, 0.001);
    entries[i].a = i;
  }
  std::sort(entries.begin(), entries.end(), [](const auto& x, const auto& y) {
    return x.box.lo[0] < y.box.lo[0];
  });
  auto tree = RStarTree<1>::BulkLoad(&pool, entries);
  ASSERT_TRUE(tree.ok());
  // 20000 entries / 127 per leaf = 158 leaves; height must be 3.
  EXPECT_EQ(tree->height(), 3u);
}

TEST(RStarTreeTest, DuplicateBoxesAllRetrievable) {
  MemPageFile file(512);
  BufferPool pool(&file, 64);
  auto tree = RStarTree<1>::Create(&pool);
  ASSERT_TRUE(tree.ok());
  Box<1> b;
  b.lo = {0.5};
  b.hi = {0.5};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(tree->Insert(b, i).ok());
  }
  const auto hits = TreeSearch(*tree, b);
  EXPECT_EQ(hits.size(), 200u);
  EXPECT_TRUE(tree->CheckInvariants().ok());
}

}  // namespace
}  // namespace fielddb
