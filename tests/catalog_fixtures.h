// Fixed small snapshots of every catalog kind (grid under each
// persisted method with and without the spatial tree, temporal, vector
// and volume under both methods, the shard router at 1 and 4 shards),
// shared by the catalog golden-bytes and catalog mutation tests. Every
// input is seeded or analytic, so each saved catalog is the same bytes
// on every run.

#ifndef FIELDDB_TESTS_CATALOG_FIXTURES_H_
#define FIELDDB_TESTS_CATALOG_FIXTURES_H_

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/field_database.h"
#include "core/shard_router.h"
#include "gen/fractal.h"
#include "temporal/temporal_index.h"
#include "vector/vector_index.h"
#include "volume/volume_index.h"

namespace fielddb {
namespace catalog_fixtures {

enum class Kind { kGrid, kTemporal, kVector, kVolume, kRouter };

/// One saved snapshot: `prefix` plus the catalog file that names it
/// (`<prefix>.meta`, or `<prefix>.router` for the router).
struct Fixture {
  std::string name;
  Kind kind;
  std::string prefix;
  std::string catalog;
  uint32_t shards = 0;  // router fixtures only
};

inline GridField FixtureTerrain() {
  FractalOptions fo;
  fo.size_exp = 4;  // 16x16 cells
  fo.roughness_h = 0.4;
  fo.seed = 7;
  return MakeFractalField(fo).value();
}

inline TemporalGridField FixtureTemporal() {
  const uint32_t n = 6;
  std::vector<std::vector<double>> snapshots(3);
  for (uint32_t k = 0; k < snapshots.size(); ++k) {
    for (uint32_t j = 0; j <= n; ++j) {
      for (uint32_t i = 0; i <= n; ++i) {
        snapshots[k].push_back(std::sin(0.7 * i + 0.3 * k) +
                               std::cos(0.45 * j) + 0.25 * k);
      }
    }
  }
  return TemporalGridField::Create(n, n, Rect2{{0, 0}, {1, 1}},
                                   std::move(snapshots))
      .value();
}

inline VectorGridField FixtureVector() {
  const uint32_t n = 8;
  std::vector<double> su, sv;
  for (uint32_t j = 0; j <= n; ++j) {
    for (uint32_t i = 0; i <= n; ++i) {
      su.push_back(std::sin(0.5 * i) + 0.1 * j);
      sv.push_back(std::cos(0.35 * j) - 0.2 * i);
    }
  }
  return VectorGridField::Create(n, n, Rect2{{0, 0}, {1, 1}}, su, sv)
      .value();
}

inline VolumeGridField FixtureVolume() {
  VolumeFractalOptions fo;
  fo.nx = fo.ny = fo.nz = 6;
  fo.seed = 11;
  return MakeFractalVolume(fo).value();
}

inline void RemoveSnapshot(const Fixture& f) {
  const auto remove_db = [](const std::string& p) {
    for (const char* suffix :
         {".pages", ".meta", ".pages.tmp", ".meta.tmp", ".wal"}) {
      std::remove((p + suffix).c_str());
    }
  };
  if (f.kind == Kind::kRouter) {
    for (uint32_t k = 0; k < f.shards; ++k) {
      remove_db(f.prefix + ".s" + std::to_string(k));
    }
    std::remove((f.prefix + ".router").c_str());
    std::remove((f.prefix + ".router.tmp").c_str());
  } else {
    remove_db(f.prefix);
  }
}

/// Builds and saves every fixture under `dir`; each is saved once, so
/// every catalog carries epoch 1.
inline StatusOr<std::vector<Fixture>> SaveAllFixtures(const std::string& dir) {
  std::vector<Fixture> out;
  const auto add = [&](const std::string& name, Kind kind,
                       uint32_t shards = 0) -> Fixture& {
    Fixture f;
    f.name = name;
    f.kind = kind;
    f.prefix = dir + "/catalog_fixture_" + name;
    f.catalog = f.prefix + (kind == Kind::kRouter ? ".router" : ".meta");
    f.shards = shards;
    RemoveSnapshot(f);
    out.push_back(f);
    return out.back();
  };

  const GridField terrain = FixtureTerrain();
  const std::pair<const char*, IndexMethod> grid_methods[] = {
      {"linear_scan", IndexMethod::kLinearScan},
      {"i_all", IndexMethod::kIAll},
      {"i_hilbert", IndexMethod::kIHilbert},
      {"i_quadtree", IndexMethod::kIntervalQuadtree}};
  for (const auto& [method_name, method] : grid_methods) {
    for (const bool spatial : {false, true}) {
      const Fixture& f =
          add(std::string("grid_") + method_name +
                  (spatial ? "_spatial" : ""),
              Kind::kGrid);
      FieldDatabaseOptions options;
      options.method = method;
      options.build_spatial_index = spatial;
      StatusOr<std::unique_ptr<FieldDatabase>> db =
          FieldDatabase::Build(terrain, options);
      if (!db.ok()) return db.status();
      FIELDDB_RETURN_IF_ERROR((*db)->Save(f.prefix));
    }
  }

  {
    const Fixture& f = add("temporal", Kind::kTemporal);
    StatusOr<std::unique_ptr<TemporalFieldDatabase>> db =
        TemporalFieldDatabase::Build(FixtureTemporal(), {});
    if (!db.ok()) return db.status();
    FIELDDB_RETURN_IF_ERROR((*db)->Save(f.prefix));
  }

  const VectorGridField vector_field = FixtureVector();
  for (const VectorIndexMethod method :
       {VectorIndexMethod::kLinearScan, VectorIndexMethod::kIHilbert}) {
    const Fixture& f =
        add(method == VectorIndexMethod::kIHilbert ? "vector_i_hilbert"
                                                   : "vector_linear_scan",
            Kind::kVector);
    VectorFieldDatabase::Options options;
    options.method = method;
    StatusOr<std::unique_ptr<VectorFieldDatabase>> db =
        VectorFieldDatabase::Build(vector_field, options);
    if (!db.ok()) return db.status();
    FIELDDB_RETURN_IF_ERROR((*db)->Save(f.prefix));
  }

  const VolumeGridField volume_field = FixtureVolume();
  for (const VolumeIndexMethod method :
       {VolumeIndexMethod::kLinearScan, VolumeIndexMethod::kIHilbert}) {
    const Fixture& f =
        add(method == VolumeIndexMethod::kIHilbert ? "volume_i_hilbert"
                                                   : "volume_linear_scan",
            Kind::kVolume);
    VolumeFieldDatabase::Options options;
    options.method = method;
    StatusOr<std::unique_ptr<VolumeFieldDatabase>> db =
        VolumeFieldDatabase::Build(volume_field, options);
    if (!db.ok()) return db.status();
    FIELDDB_RETURN_IF_ERROR((*db)->Save(f.prefix));
  }

  for (const uint32_t shards : {1u, 4u}) {
    const Fixture& f =
        add("router_" + std::to_string(shards), Kind::kRouter, shards);
    ShardRouterOptions options;
    options.shards = shards;
    options.db.build_spatial_index = false;
    StatusOr<std::unique_ptr<ShardRouter>> router =
        ShardRouter::Build(terrain, options);
    if (!router.ok()) return router.status();
    FIELDDB_RETURN_IF_ERROR((*router)->Save(f.prefix));
    FIELDDB_RETURN_IF_ERROR((*router)->Close());
  }
  return out;
}

inline std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

}  // namespace catalog_fixtures
}  // namespace fielddb

#endif  // FIELDDB_TESTS_CATALOG_FIXTURES_H_
