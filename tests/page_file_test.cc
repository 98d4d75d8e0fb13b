#include "storage/page_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "obs/metrics.h"
#include "storage/crc32c.h"

namespace fielddb {
namespace {

TEST(PageTest, ReadWriteRoundtrip) {
  Page p(4096);
  EXPECT_EQ(p.size(), 4096u);
  const uint64_t magic = 0xDEADBEEFCAFEF00DULL;
  p.WriteAt<uint64_t>(16, magic);
  EXPECT_EQ(p.ReadAt<uint64_t>(16), magic);
  p.Zero();
  EXPECT_EQ(p.ReadAt<uint64_t>(16), 0u);
}

TEST(PageTest, BulkCopy) {
  Page p(256);
  const char src[] = "hello pages";
  p.Write(100, src, sizeof(src));
  char dst[sizeof(src)] = {};
  p.Read(100, dst, sizeof(src));
  EXPECT_STREQ(dst, "hello pages");
}

TEST(MemPageFileTest, AllocateSequentialIds) {
  MemPageFile f(512);
  EXPECT_EQ(f.NumPages(), 0u);
  for (PageId want = 0; want < 5; ++want) {
    StatusOr<PageId> id = f.Allocate();
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(*id, want);
  }
  EXPECT_EQ(f.NumPages(), 5u);
}

TEST(MemPageFileTest, WriteReadRoundtrip) {
  MemPageFile f(512);
  ASSERT_TRUE(f.Allocate().ok());
  Page p(512);
  p.WriteAt<uint32_t>(0, 777u);
  ASSERT_TRUE(f.Write(0, p).ok());
  Page q(512);
  ASSERT_TRUE(f.Read(0, &q).ok());
  EXPECT_EQ(q.ReadAt<uint32_t>(0), 777u);
}

TEST(MemPageFileTest, FreshPagesAreZeroed) {
  MemPageFile f(128);
  ASSERT_TRUE(f.Allocate().ok());
  Page p(128);
  ASSERT_TRUE(f.Read(0, &p).ok());
  for (uint32_t i = 0; i < 128; i += 8) {
    EXPECT_EQ(p.ReadAt<uint64_t>(i), 0u);
  }
}

TEST(MemPageFileTest, OutOfRangeRejected) {
  MemPageFile f(512);
  Page p(512);
  EXPECT_EQ(f.Read(0, &p).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.Write(0, p).code(), StatusCode::kOutOfRange);
}

TEST(MemPageFileTest, SizeMismatchRejected) {
  MemPageFile f(512);
  ASSERT_TRUE(f.Allocate().ok());
  Page wrong(256);
  EXPECT_EQ(f.Write(0, wrong).code(), StatusCode::kInvalidArgument);
}

class DiskPageFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/fielddb_pagefile_test.bin";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }
  std::string path_;
};

TEST_F(DiskPageFileTest, CreateWriteReopenRead) {
  {
    auto f = DiskPageFile::Create(path_, 512);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE((*f)->Allocate().ok());
    ASSERT_TRUE((*f)->Allocate().ok());
    Page p(512);
    p.WriteAt<uint64_t>(8, 4242u);
    ASSERT_TRUE((*f)->Write(1, p).ok());
  }
  auto f = DiskPageFile::Open(path_, 512);
  ASSERT_TRUE(f.ok());
  EXPECT_EQ((*f)->NumPages(), 2u);
  Page p(512);
  ASSERT_TRUE((*f)->Read(1, &p).ok());
  EXPECT_EQ(p.ReadAt<uint64_t>(8), 4242u);
}

TEST_F(DiskPageFileTest, OpenMissingFails) {
  auto f = DiskPageFile::Open(path_ + ".nope", 512);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kIOError);
}

TEST_F(DiskPageFileTest, OpenBadLengthIsCorruption) {
  std::FILE* raw = std::fopen(path_.c_str(), "wb");
  ASSERT_NE(raw, nullptr);
  std::fputs("not a multiple of 512", raw);
  std::fclose(raw);
  auto f = DiskPageFile::Open(path_, 512);
  EXPECT_FALSE(f.ok());
  EXPECT_EQ(f.status().code(), StatusCode::kCorruption);
}

TEST_F(DiskPageFileTest, OutOfRangeRejected) {
  auto f = DiskPageFile::Create(path_, 512);
  ASSERT_TRUE(f.ok());
  Page p(512);
  EXPECT_EQ((*f)->Read(3, &p).code(), StatusCode::kOutOfRange);
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::vector<uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  std::fseek(f, 0, SEEK_END);
  bytes.resize(static_cast<size_t>(std::ftell(f)));
  std::fseek(f, 0, SEEK_SET);
  if (std::fread(bytes.data(), 1, bytes.size(), f) != bytes.size()) {
    bytes.clear();
  }
  std::fclose(f);
  return bytes;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

// Writes one 4 KB page of seeded random payload as page 0 of `path`.
void WriteRandomPage(const std::string& path, uint32_t epoch) {
  auto f = DiskPageFile::Create(path, 4096, epoch);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE((*f)->Allocate().ok());
  Page p(4096);
  Rng rng(4096);
  for (uint32_t i = 0; i < 4096; i += 8) p.WriteAt<uint64_t>(i, rng.NextU64());
  ASSERT_TRUE((*f)->Write(0, p).ok());
  ASSERT_TRUE((*f)->Sync().ok());
}

// Pins the on-disk slot format to the portable table CRC: a slot written
// through the (possibly hardware) checksum path stores exactly
// MaskCrc(Crc32cPortable) over epoch, page id and payload, so snapshots
// written by either implementation verify under the other.
TEST_F(DiskPageFileTest, StoredChecksumMatchesPortableCrc) {
  WriteRandomPage(path_, 3);
  const std::vector<uint8_t> slot = ReadFileBytes(path_);
  ASSERT_EQ(slot.size(), kPageHeaderSize + 4096u);
  uint32_t stored = 0;
  std::memcpy(&stored, slot.data(), sizeof(stored));
  EXPECT_EQ(stored,
            MaskCrc(Crc32cPortable(0, slot.data() + 4, slot.size() - 4)));
}

// A faster checksum must not be a weaker check: seeded single-bit and
// bit-pair flips anywhere in a real 4 KB slot (CRC, epoch, page id,
// payload) must each be reported as corruption, through both the single
// Read and the batched read path, and each must be counted.
TEST_F(DiskPageFileTest, SeededBitFlipsAreAlwaysDetected) {
  WriteRandomPage(path_, 1);
  const std::vector<uint8_t> clean = ReadFileBytes(path_);
  ASSERT_EQ(clean.size(), kPageHeaderSize + 4096u);
  Counter* const corrupt_reads =
      MetricsRegistry::Default().GetCounter("storage.file.corrupt_page_reads");
  const uint64_t bits = clean.size() * 8;
  Rng rng(0xb17f11b5u);
  constexpr int kTrials = 300;
  for (int trial = 0; trial < kTrials; ++trial) {
    std::vector<uint8_t> image = clean;
    const int flips = trial % 2 == 0 ? 1 : 2;
    uint64_t previous = bits;  // a pair flips two distinct bits
    for (int k = 0; k < flips; ++k) {
      uint64_t bit = rng.NextBounded(bits);
      while (bit == previous) bit = rng.NextBounded(bits);
      previous = bit;
      image[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
    }
    ASSERT_TRUE(WriteFileBytes(path_, image));
    auto f = DiskPageFile::Open(path_, 4096, 1);
    ASSERT_TRUE(f.ok());
    const uint64_t before = corrupt_reads->value();
    Page p(4096);
    Status st;
    if (trial % 4 < 2) {
      st = (*f)->Read(0, &p);
    } else {
      const PageId id = 0;
      EXPECT_EQ((*f)->ReadBatch(&id, 1, &p, &st).code(),
                StatusCode::kCorruption);
    }
    EXPECT_EQ(st.code(), StatusCode::kCorruption)
        << "trial " << trial << ": " << flips << " flip(s) not detected";
    EXPECT_EQ(corrupt_reads->value(), before + 1) << "trial " << trial;
  }
  // The untouched image still verifies.
  ASSERT_TRUE(WriteFileBytes(path_, clean));
  auto f = DiskPageFile::Open(path_, 4096, 1);
  ASSERT_TRUE(f.ok());
  Page p(4096);
  EXPECT_TRUE((*f)->Read(0, &p).ok());
}

}  // namespace
}  // namespace fielddb
