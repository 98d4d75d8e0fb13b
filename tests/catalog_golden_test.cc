// Pins the on-disk bytes of every catalog kind: each fixture of
// catalog_fixtures.h is saved and its catalog's size and CRC32C compared
// with values captured from the hand-rolled fprintf writers this codec
// replaced. A change here is an on-disk format change, which must bump
// the catalog's magic (and keep rejecting the old one) instead of
// editing these numbers.

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "storage/crc32c.h"
#include "catalog_fixtures.h"

namespace fielddb {
namespace {

using catalog_fixtures::Fixture;

struct Golden {
  size_t size;
  uint32_t crc;
};

const std::map<std::string, Golden>& GoldenCatalogs() {
  static const std::map<std::string, Golden> kGolden = {
      {"grid_linear_scan", {174, 0x5725ef2c}},
      {"grid_linear_scan_spatial", {193, 0xfe171942}},
      {"grid_i_all", {192, 0xf08a473d}},
      {"grid_i_all_spatial", {211, 0x3c13199d}},
      {"grid_i_hilbert", {877, 0xfcd82fc4}},
      {"grid_i_hilbert_spatial", {896, 0x4702e633}},
      {"grid_i_quadtree", {17982, 0xa09b2503}},
      {"grid_i_quadtree_spatial", {18001, 0xa5e2d5d2}},
      {"temporal", {393, 0x82e5a912}},
      {"vector_linear_scan", {99, 0x60a84045}},
      {"vector_i_hilbert", {495, 0x52782b8d}},
      {"volume_linear_scan", {186, 0x40c5d228}},
      {"volume_i_hilbert", {539, 0x6b8498d1}},
      {"router_1", {986, 0x67fd5c39}},
      {"router_4", {1084, 0x0597d5b2}},
  };
  return kGolden;
}

TEST(CatalogGoldenTest, EveryCatalogKindIsByteIdentical) {
  StatusOr<std::vector<Fixture>> fixtures =
      catalog_fixtures::SaveAllFixtures(::testing::TempDir());
  ASSERT_TRUE(fixtures.ok()) << fixtures.status().ToString();
  ASSERT_EQ(fixtures->size(), 15u);
  for (const Fixture& f : *fixtures) {
    const std::string bytes = catalog_fixtures::ReadFileBytes(f.catalog);
    const uint32_t crc = Crc32c(bytes.data(), bytes.size());
    const auto it = GoldenCatalogs().find(f.name);
    if (it == GoldenCatalogs().end()) {
      ADD_FAILURE() << "no golden entry for " << f.name;
    } else {
      EXPECT_EQ(bytes.size(), it->second.size) << f.name;
      EXPECT_EQ(crc, it->second.crc) << f.name << ": 0x" << std::hex << crc;
    }
    catalog_fixtures::RemoveSnapshot(f);
  }
}

}  // namespace
}  // namespace fielddb
