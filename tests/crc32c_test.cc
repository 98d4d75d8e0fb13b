// CRC-32C: published known-answer vectors, a seeded differential test of
// the dispatched (hardware when available) routine against the portable
// table loop, incremental extension, and a check that the dispatch really
// picks the hardware path on CPUs that have it.

#include "storage/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"

namespace fielddb {
namespace {

// Both implementations must produce the same published value.
void ExpectBoth(const std::vector<uint8_t>& bytes, uint32_t want) {
  EXPECT_EQ(Crc32c(bytes.data(), bytes.size()), want);
  EXPECT_EQ(Crc32cPortable(0, bytes.data(), bytes.size()), want);
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  // RFC 3720 (iSCSI) appendix B.4.
  ExpectBoth(std::vector<uint8_t>(32, 0x00), 0x8a9136aau);
  ExpectBoth(std::vector<uint8_t>(32, 0xff), 0x62a8ab43u);
  std::vector<uint8_t> ascending(32);
  for (int i = 0; i < 32; ++i) ascending[i] = static_cast<uint8_t>(i);
  ExpectBoth(ascending, 0x46dd794eu);
}

TEST(Crc32cTest, CheckStringKnownAnswer) {
  const std::string check = "123456789";
  ExpectBoth(std::vector<uint8_t>(check.begin(), check.end()), 0xe3069283u);
}

TEST(Crc32cTest, EmptyInputLeavesCrcUnchanged) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0x12345678u, nullptr, 0), 0x12345678u);
  EXPECT_EQ(Crc32cPortable(0x12345678u, nullptr, 0), 0x12345678u);
}

// Every length 0..9000 (covering the word loop, the byte tail and the
// 4,108-byte span a 4 KB page slot checksums) at every start offset 0..7
// (slots and frames are unaligned in their buffers), from a random
// running CRC.
TEST(Crc32cTest, DispatchedMatchesPortableAtEveryLengthAndOffset) {
  constexpr size_t kMaxLen = 9000;
  constexpr size_t kMaxOffset = 8;
  Rng rng(20021);
  std::vector<uint8_t> buf(kMaxLen + kMaxOffset);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  for (size_t offset = 0; offset < kMaxOffset; ++offset) {
    for (size_t len = 0; len <= kMaxLen; ++len) {
      const auto seed = static_cast<uint32_t>(rng.NextU64());
      const uint8_t* p = buf.data() + offset;
      ASSERT_EQ(Crc32cExtend(seed, p, len), Crc32cPortable(seed, p, len))
          << "len " << len << " offset " << offset << " impl "
          << Crc32cImplName();
    }
  }
}

TEST(Crc32cTest, ExtendAtEveryCutEqualsOneShot) {
  Rng rng(7);
  std::vector<uint8_t> buf(100);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t whole = Crc32c(buf.data(), buf.size());
  EXPECT_EQ(whole, Crc32cPortable(0, buf.data(), buf.size()));
  for (size_t cut = 0; cut <= buf.size(); ++cut) {
    const uint32_t head = Crc32c(buf.data(), cut);
    EXPECT_EQ(Crc32cExtend(head, buf.data() + cut, buf.size() - cut), whole)
        << "cut " << cut;
    const uint32_t portable_head = Crc32cPortable(0, buf.data(), cut);
    EXPECT_EQ(Crc32cPortable(portable_head, buf.data() + cut,
                             buf.size() - cut),
              whole)
        << "cut " << cut;
  }
}

// A broken dispatch must not silently fall back to the table loop.
TEST(Crc32cTest, DispatchPicksHardwareWhenCpuHasIt) {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("sse4.2")) {
    EXPECT_STREQ(Crc32cImplName(), "sse4.2");
    return;
  }
#endif
  EXPECT_STREQ(Crc32cImplName(), "portable");
}

}  // namespace
}  // namespace fielddb
