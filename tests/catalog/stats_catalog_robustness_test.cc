#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/catalog_v3.h"
#include "catalog/stats_catalog.h"
#include "epfis/fpf_curve.h"
#include "util/crc32c.h"
#include "util/fault.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages) {
  IndexStats s;
  s.index_name = name;
  s.table_pages = pages;
  s.table_records = pages * 10;
  s.distinct_keys = pages * 5;
  s.pages_accessed = pages;
  s.b_min = 12;
  s.b_max = pages;
  s.f_min = pages * 3;
  s.clustering = 0.25;
  auto curve = PiecewiseLinear::FromKnots(
      {{12.0, static_cast<double>(pages) * 3.0},
       {static_cast<double>(pages), static_cast<double>(pages)}});
  s.fpf = std::move(curve).value();
  return s;
}

// The catalog's v3 image with one byte of its first entry's table_pages
// flipped (the fixed fields follow the 64 B header and the 40 B index
// records): silent bit rot, frame intact.
std::string FirstEntryDamaged(const StatsCatalog& catalog) {
  std::string image = catalog.SaveToStringV3();
  image[64 + 40 * catalog.size() + 2] ^= 0xFF;
  return image;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

class StatsCatalogRobustnessTest : public testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().DisarmAll();
    // Per-test directory: ctest runs each TEST as its own process, and
    // parallel processes sharing one scratch dir would race on remove_all.
    dir_ = testing::TempDir() + "/epfis_catalog_robust_" +
           testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    FaultInjector::Global().DisarmAll();
    std::filesystem::remove_all(dir_);
  }

  bool HasTmpLeak() const {
    for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
      if (entry.path().extension() == ".tmp") return true;
    }
    return false;
  }

  std::string dir_;
};

TEST_F(StatsCatalogRobustnessTest, ChecksumMismatchFailsStrictLoad) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  std::string image = FirstEntryDamaged(catalog);

  StatsCatalog loaded;
  Status status = loaded.LoadFromString(image);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(loaded.size(), 0u);
}

TEST_F(StatsCatalogRobustnessTest, RecoverQuarantinesCorruptEntryOnly) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_bad", 100));
  catalog.Put(MakeStats("ix_good", 200));
  std::string image = FirstEntryDamaged(catalog);  // ix_bad sorts first.

  StatsCatalog loaded;
  auto report = loaded.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 1u);
  ASSERT_EQ(report->quarantine_reasons.size(), 1u);
  EXPECT_NE(report->quarantine_reasons[0].find("checksum"),
            std::string::npos);

  EXPECT_TRUE(loaded.Get("ix_good").ok());
  EXPECT_TRUE(loaded.IsQuarantined("ix_bad"));
  Status bad = loaded.Get("ix_bad").status();
  EXPECT_EQ(bad.code(), StatusCode::kCorruption);
  // A fresh Put (statistics refresh) clears the quarantine.
  loaded.Put(MakeStats("ix_bad", 100));
  EXPECT_FALSE(loaded.IsQuarantined("ix_bad"));
  EXPECT_TRUE(loaded.Get("ix_bad").ok());
}

// A torn file fails as a whole, even in recovery: the header's file size
// no longer matches, and the catalog keeps what it held.
TEST_F(StatsCatalogRobustnessTest, RecoverHandlesTornTail) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  catalog.Put(MakeStats("ix_b", 200));
  std::string image = catalog.SaveToStringV3();
  image.resize(image.size() - 3);  // The file ends inside the name heap.

  StatsCatalog loaded;
  loaded.Put(MakeStats("ix_old", 50));
  auto report = loaded.RecoverFromString(image);
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  EXPECT_NE(report.status().message().find("torn"), std::string::npos)
      << report.status().ToString();
  EXPECT_EQ(loaded.IndexNames(), std::vector<std::string>{"ix_old"});
}

TEST_F(StatsCatalogRobustnessTest, UnknownFutureVersionIsRejected) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  std::string image = catalog.SaveToStringV3();
  // Version 4 at offset 8, with the header CRC (offset 60) recomputed, so
  // the version is the only thing wrong.
  uint32_t version = 4;
  std::memcpy(image.data() + 8, &version, sizeof(version));
  uint32_t header_crc = Crc32c(image.data(), 60);
  std::memcpy(image.data() + 60, &header_crc, sizeof(header_crc));

  StatsCatalog loaded;
  Status strict = loaded.LoadFromString(image);
  EXPECT_EQ(strict.code(), StatusCode::kCorruption);
  EXPECT_NE(strict.message().find("unsupported version 4"),
            std::string::npos)
      << strict.ToString();
  EXPECT_EQ(loaded.RecoverFromString(image).status().ToString(),
            strict.ToString());
  std::string path = dir_ + "/v4.cat";
  std::ofstream(path, std::ios::binary) << image;
  EXPECT_EQ(OpenCatalogSnapshotV3(path).status().ToString(),
            strict.ToString());
}

// Text catalogs (v1, and v2 with its header line) are no longer read:
// every load refuses them with one message, whatever their length, and
// leaves the catalog as it was.
TEST_F(StatsCatalogRobustnessTest, TextCatalogsAreRejected) {
  const std::string v1 = "[index]\nname=ix_legacy\nknots=12:150,50:50\n[end]\n";
  const std::string v2 =
      "[epfis-stats-catalog-v2]\n[index]\nname=ix_legacy\ntable_pages=50\n"
      "table_records=500\nknots=12:150,50:50\n[end crc=00000000]\n";
  ASSERT_LT(v1.size(), 64u);  // Shorter than a v3 header.
  ASSERT_GT(v2.size(), 64u);
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  for (const std::string& text : {v1, v2}) {
    SCOPED_TRACE(text);
    std::string path = dir_ + "/text.cat";
    std::ofstream(path, std::ios::binary) << text;
    for (const Status& status : {catalog.LoadFromString(text),
                                 catalog.RecoverFromString(text).status(),
                                 catalog.LoadFromFile(path)}) {
      EXPECT_EQ(status.code(), StatusCode::kCorruption);
      EXPECT_NE(status.message().find("not a v3 catalog"), std::string::npos)
          << status.ToString();
      EXPECT_NE(status.message().find("text catalogs are no longer read"),
                std::string::npos)
          << status.ToString();
    }
    EXPECT_EQ(catalog.IndexNames(), std::vector<std::string>{"ix_a"});
  }
}

TEST_F(StatsCatalogRobustnessTest, FileRoundTripIsAtomicAndDurable) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());
  EXPECT_FALSE(HasTmpLeak());

  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_TRUE(loaded.Get("ix_a").ok());
}

// The torn-write regression: an injected failure mid-save must leave the
// previous on-disk catalog byte-identical and loadable, with no tmp file
// left behind.
TEST_F(StatsCatalogRobustnessTest, InjectedWriteFailurePreservesOldCatalog) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog old_catalog;
  old_catalog.Put(MakeStats("ix_old", 100));
  ASSERT_TRUE(old_catalog.SaveToFileV3(path).ok());
  std::string old_bytes = Slurp(path);

  StatsCatalog new_catalog;
  new_catalog.Put(MakeStats("ix_old", 100));
  new_catalog.Put(MakeStats("ix_new", 200));
  for (const char* point :
       {"catalog.save.open", "catalog.save.write", "catalog.save.fsync",
        "catalog.save.rename"}) {
    SCOPED_TRACE(point);
    FaultSpec spec;
    spec.skip_calls = 0;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    Status status = new_catalog.SaveToFileV3(path);
    EXPECT_EQ(status.code(), StatusCode::kIoError);
    FaultInjector::Global().Disarm(point);

    EXPECT_EQ(Slurp(path), old_bytes) << "old catalog must survive";
    EXPECT_FALSE(HasTmpLeak()) << "tmp file leaked";
    StatsCatalog check;
    ASSERT_TRUE(check.LoadFromFile(path).ok());
    EXPECT_TRUE(check.Get("ix_old").ok());
    EXPECT_FALSE(check.Contains("ix_new"));
  }

  // Recovery on the next clean call: the save goes through untouched.
  ASSERT_TRUE(new_catalog.SaveToFileV3(path).ok());
  StatsCatalog check;
  ASSERT_TRUE(check.LoadFromFile(path).ok());
  EXPECT_TRUE(check.Get("ix_new").ok());
}

TEST_F(StatsCatalogRobustnessTest, LoadFaultPointsSurfaceAsErrors) {
  std::string path = dir_ + "/stats.cat";
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  for (const char* point : {"catalog.load.open", "catalog.load.read"}) {
    SCOPED_TRACE(point);
    FaultSpec spec;
    spec.max_fires = 1;
    FaultInjector::Global().Arm(point, spec);
    StatsCatalog loaded;
    EXPECT_EQ(loaded.LoadFromFile(path).code(), StatusCode::kIoError);
    FaultInjector::Global().Disarm(point);
    // Clean retry succeeds.
    EXPECT_TRUE(loaded.LoadFromFile(path).ok());
  }
}

TEST_F(StatsCatalogRobustnessTest, RemoveClearsQuarantine) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("ix_a", 100));
  StatsCatalog loaded;
  ASSERT_TRUE(loaded.RecoverFromString(FirstEntryDamaged(catalog)).ok());
  ASSERT_TRUE(loaded.IsQuarantined("ix_a"));
  loaded.Remove("ix_a");
  EXPECT_FALSE(loaded.IsQuarantined("ix_a"));
  EXPECT_EQ(loaded.Get("ix_a").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace epfis
