// The binary mmap-able catalog format (v3): lossless round-trips,
// structural validation, per-entry corruption quarantine, the zero-copy
// snapshot open, and one verdict from every reader on the same image.

#include "catalog/catalog_v3.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>

#include "catalog/stats_catalog.h"
#include "catalog_v3_images.h"
#include "epfis/est_io.h"

namespace epfis {
namespace {

IndexStats MakeStats(const std::string& name, uint64_t pages,
                     double clustering) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = pages;
  stats.table_records = pages * 40;
  stats.distinct_keys = pages / 2;
  stats.pages_accessed = pages;
  stats.b_min = 12;
  stats.b_max = pages;
  stats.f_min = pages * 30;
  stats.clustering = clustering;
  stats.sample_rate = 0.25;
  stats.sampled_refs = pages * 10;
  double p = static_cast<double>(pages);
  stats.fpf = PiecewiseLinear::FromKnots({{12, 30.0 * p},
                                          {p * 0.1, 15.0 * p},
                                          {p * 0.3, 6.0 * p},
                                          {p, 1.0 * p}})
                  .value();
  return stats;
}

void ExpectStatsEqual(const IndexStats& a, const IndexStats& b) {
  EXPECT_EQ(a.index_name, b.index_name);
  EXPECT_EQ(a.table_pages, b.table_pages);
  EXPECT_EQ(a.table_records, b.table_records);
  EXPECT_EQ(a.distinct_keys, b.distinct_keys);
  EXPECT_EQ(a.pages_accessed, b.pages_accessed);
  EXPECT_EQ(a.b_min, b.b_min);
  EXPECT_EQ(a.b_max, b.b_max);
  EXPECT_EQ(a.f_min, b.f_min);
  EXPECT_EQ(a.clustering, b.clustering);  // Bit-exact, no tolerance.
  EXPECT_EQ(a.sample_rate, b.sample_rate);
  EXPECT_EQ(a.sampled_refs, b.sampled_refs);
  ASSERT_EQ(a.fpf.has_value(), b.fpf.has_value());
  if (a.fpf.has_value()) {
    const auto& ka = a.fpf->knots();
    const auto& kb = b.fpf->knots();
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      EXPECT_EQ(ka[i].x, kb[i].x);
      EXPECT_EQ(ka[i].y, kb[i].y);
    }
  }
}

// Offset of the first entry's packed fixed fields in an encoded image:
// 64-byte header, then one 40-byte index record per entry.
size_t FirstFixedOffset(size_t entry_count) { return 64 + entry_count * 40; }

TEST(CatalogV3Test, EncodeDecodeRoundTripsLosslessly) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  IndexStats curveless;
  curveless.index_name = "curveless.key";
  curveless.table_pages = 77;
  curveless.table_records = 770;
  catalog.Put(curveless);

  StatsCatalog restored;
  ASSERT_TRUE(restored.LoadFromString(catalog.SaveToStringV3()).ok());
  ASSERT_EQ(restored.size(), 3u);
  for (const std::string& name : catalog.IndexNames()) {
    SCOPED_TRACE(name);
    auto original = catalog.Get(name);
    auto loaded = restored.Get(name);
    ASSERT_TRUE(original.ok());
    ASSERT_TRUE(loaded.ok());
    ExpectStatsEqual(*original, *loaded);
  }
}

TEST(CatalogV3Test, LoadFromFileAutodetectsBinaryFormat) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("auto.key", 500, 0.5));
  std::string path = testing::TempDir() + "/epfis_v3_autodetect.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  StatsCatalog loaded;
  auto report = loaded.RecoverFromFile(path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 0u);
  ExpectStatsEqual(*catalog.Get("auto.key"), *loaded.Get("auto.key"));
  std::remove(path.c_str());
}

TEST(CatalogV3Test, BadMagicIsCorruption) {
  StatsCatalog catalog;
  EXPECT_EQ(catalog.LoadFromString("EPFSCATX garbage").code(),
            StatusCode::kCorruption);
}

TEST(CatalogV3Test, CrossEndianImageIsClearCorruption) {
  // Byte-craft the file an opposite-endianness host would have written:
  // the magic is a char string (endianness-neutral), but every multi-byte
  // header field lands byte-swapped. Regression: the endian tag used to be
  // checked *after* the version field, so such a file surfaced as
  // "unsupported version 50331648" (3 byte-swapped) — noise that sent
  // operators hunting a nonexistent version skew instead of the real
  // problem. The tag must be checked first and the error must say so.
  StatsCatalog catalog;
  catalog.Put(MakeStats("endian.key", 600, 0.4));
  std::string image = catalog.SaveToStringV3();
  // Header layout: magic[8], version u32 @8, endian u32 @12.
  std::reverse(image.begin() + 8, image.begin() + 12);
  std::reverse(image.begin() + 12, image.begin() + 16);

  StatsCatalog strict;
  Status status = strict.LoadFromString(image);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find("foreign byte order"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("opposite-endianness"), std::string::npos)
      << status.ToString();
  EXPECT_EQ(status.message().find("version"), std::string::npos)
      << "cross-endian file misreported as a version mismatch: "
      << status.ToString();

  // Structural, not per-entry: recovery mode refuses the file too.
  StatsCatalog recovering;
  EXPECT_FALSE(recovering.RecoverFromString(image).ok());

  // The zero-copy open path reports the same verdict.
  std::string path = testing::TempDir() + "/epfis_v3_cross_endian.cat";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(image.data(), 1, image.size(), f);
    fclose(f);
  }
  auto snapshot = OpenCatalogSnapshotV3(path);
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find("foreign byte order"),
            std::string::npos)
      << snapshot.status().ToString();
  std::remove(path.c_str());

  // A damaged tag that matches neither byte order is reported as damage,
  // not as a foreign writer.
  std::string damaged = catalog.SaveToStringV3();
  damaged[12] ^= 0x55;
  StatsCatalog loaded;
  Status damaged_status = loaded.LoadFromString(damaged);
  EXPECT_EQ(damaged_status.code(), StatusCode::kCorruption);
  EXPECT_NE(damaged_status.message().find("endian tag damaged"),
            std::string::npos)
      << damaged_status.ToString();
}

TEST(CatalogV3Test, TruncationIsStructuralCorruption) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("t.key", 300, 0.2));
  std::string image = catalog.SaveToStringV3();
  // A torn write (file shorter than the header claims) must fail even in
  // recovery mode: nothing in a half-written file can be trusted.
  std::string torn = image.substr(0, image.size() - 7);
  StatsCatalog loaded;
  EXPECT_EQ(loaded.LoadFromString(torn).code(), StatusCode::kCorruption);
  EXPECT_FALSE(loaded.RecoverFromString(torn).ok());
}

TEST(CatalogV3Test, HeaderBitRotIsStructuralCorruption) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("h.key", 300, 0.2));
  std::string image = catalog.SaveToStringV3();
  image[20] ^= 0x40;  // Inside the header's entry_count field.
  StatsCatalog loaded;
  EXPECT_EQ(loaded.LoadFromString(image).code(), StatusCode::kCorruption);
}

TEST(CatalogV3Test, FlippedPayloadByteQuarantinesOnlyThatEntry) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  std::string image = catalog.SaveToStringV3();
  // Corrupt the first entry's fixed fields (entries are encoded in name
  // order, so this is aaa.key's table_pages).
  image[FirstFixedOffset(2) + 2] ^= 0xFF;

  // Strict load refuses the whole file...
  StatsCatalog strict;
  EXPECT_EQ(strict.LoadFromString(image).code(), StatusCode::kCorruption);

  // ...recovery loads bbb and quarantines aaa with a checksum reason.
  StatsCatalog recovered;
  auto report = recovered.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 1u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 1u);
  EXPECT_TRUE(recovered.IsQuarantined("aaa.key"));
  EXPECT_EQ(recovered.Get("aaa.key").status().code(),
            StatusCode::kCorruption);
  ExpectStatsEqual(*catalog.Get("bbb.key"), *recovered.Get("bbb.key"));
}

TEST(CatalogV3Test, ZeroCopySnapshotMatchesMaterializedLoad) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("zc1.key", 1000, 0.3));
  catalog.Put(MakeStats("zc2.key", 2400, 0.7));
  std::string path = testing::TempDir() + "/epfis_v3_zerocopy.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  auto snapshot_or = OpenCatalogSnapshotV3(path, 42);
  ASSERT_TRUE(snapshot_or.ok()) << snapshot_or.status().ToString();
  std::shared_ptr<const CatalogSnapshot> snapshot = *snapshot_or;
  EXPECT_EQ(snapshot->generation(), 42u);
  ASSERT_EQ(snapshot->size(), 2u);

  for (const std::string& name : catalog.IndexNames()) {
    SCOPED_TRACE(name);
    // Materializing Get out of the mapped snapshot equals the original.
    auto from_map = snapshot->Get(name);
    ASSERT_TRUE(from_map.ok());
    ExpectStatsEqual(*catalog.Get(name), *from_map);
    // And estimates served straight off the mapping are bit-identical to
    // estimates computed from the owned in-memory entry.
    TableShape shape{from_map->table_pages, from_map->table_records};
    for (double sigma : {0.02, 0.5, 1.0}) {
      for (uint64_t b : {15ULL, 500ULL, 2000ULL}) {
        auto served = EstIo::EstimateFromCatalog(*snapshot, name,
                                                 {sigma, 1.0, b}, shape);
        ASSERT_TRUE(served.ok());
        EXPECT_EQ(served->source, EstimateSource::kLruFitCurve);
        EXPECT_EQ(served->fetches,
                  EstIo::Estimate(*catalog.Get(name), {sigma, 1.0, b})
                      .value());
      }
    }
  }
  std::remove(path.c_str());
}

TEST(CatalogV3Test, ZeroCopySnapshotQuarantinesCorruptEntry) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("aaa.key", 1000, 0.3));
  catalog.Put(MakeStats("bbb.key", 5000, 0.85));
  std::string image = catalog.SaveToStringV3();
  image[FirstFixedOffset(2) + 2] ^= 0xFF;  // aaa.key's fixed fields.
  std::string path = testing::TempDir() + "/epfis_v3_quarantine.cat";
  {
    FILE* f = fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(image.data(), 1, image.size(), f);
    fclose(f);
  }

  auto snapshot_or = OpenCatalogSnapshotV3(path);
  ASSERT_TRUE(snapshot_or.ok());
  std::shared_ptr<const CatalogSnapshot> snapshot = *snapshot_or;
  EXPECT_TRUE(snapshot->IsQuarantined("aaa.key"));
  EXPECT_EQ(snapshot->Get("aaa.key").status().code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(snapshot->Get("bbb.key").ok());

  // Serving from the quarantined entry degrades with Corruption
  // provenance instead of trusting mapped bytes that failed their CRC.
  TableShape shape{1000, 40000};
  auto est = EstIo::EstimateFromCatalog(*snapshot, "aaa.key",
                                        {0.1, 1.0, 200}, shape);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(est->stats_status.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

TEST(CatalogV3Test, OpenSnapshotMissingFileIsIoError) {
  auto snapshot = OpenCatalogSnapshotV3("/nonexistent/epfis_v3.cat");
  ASSERT_FALSE(snapshot.ok());
  EXPECT_EQ(snapshot.status().code(), StatusCode::kIoError);
}

// The readers below must agree on images the writer never produces: the
// strict and recovering loads and the snapshot open share one reader.

std::string WriteImage(const std::string& image, const std::string& file) {
  std::string path = testing::TempDir() + "/" + file;
  std::ofstream(path, std::ios::binary) << image;
  return path;
}

// Every reader refuses `image` as a whole with Corruption naming `what`,
// and a catalog that fails to load keeps what it held.
void ExpectEveryReaderRefuses(const std::string& image,
                              const std::string& what,
                              const std::string& file) {
  StatsCatalog strict;
  strict.Put(MakeStats("keep.key", 1000, 0.5));
  Status status = strict.LoadFromString(image);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_NE(status.message().find(what), std::string::npos)
      << status.ToString();
  EXPECT_TRUE(strict.Contains("keep.key"));

  StatsCatalog recovering;
  recovering.Put(MakeStats("keep.key", 1000, 0.5));
  auto report = recovering.RecoverFromString(image);
  EXPECT_EQ(report.status().code(), StatusCode::kCorruption);
  EXPECT_NE(report.status().message().find(what), std::string::npos)
      << report.status().ToString();
  EXPECT_TRUE(recovering.Contains("keep.key"));

  std::string path = WriteImage(image, file);
  auto snapshot = OpenCatalogSnapshotV3(path);
  EXPECT_EQ(snapshot.status().code(), StatusCode::kCorruption);
  EXPECT_NE(snapshot.status().message().find(what), std::string::npos)
      << snapshot.status().ToString();
  std::remove(path.c_str());
}

TEST(CatalogV3Test, RepeatedNameIsCorruptionInEveryReader) {
  // Both copies of "aa" pass their CRC: no reader may pick one.
  ExpectEveryReaderRefuses(
      RepeatedNameV3Image(MakeStats("aa", 1000, 0.3),
                          MakeStats("aa", 5000, 0.85), /*reseal=*/true),
      "index name 'aa' appears twice", "epfis_v3_repeated.cat");
}

TEST(CatalogV3Test, RepeatedNameWithOneBadCopyIsCorruptionInEveryReader) {
  // The second "aa" fails its CRC; the first is not trusted for it.
  ExpectEveryReaderRefuses(
      RepeatedNameV3Image(MakeStats("aa", 1000, 0.3),
                          MakeStats("aa", 5000, 0.85), /*reseal=*/false),
      "index name 'aa' appears twice", "epfis_v3_repeated_bad.cat");
}

TEST(CatalogV3Test, DecreasingKnotsAreQuarantinedInEveryReader) {
  // The CRC passes, but the knots make no curve.
  std::string image = DecreasingKnotsV3Image(MakeStats("aa", 1000, 0.3));

  StatsCatalog strict;
  Status status = strict.LoadFromString(image);
  EXPECT_EQ(status.code(), StatusCode::kCorruption);
  EXPECT_EQ(status.message(),
            "stats catalog v3: entry 1: PiecewiseLinear knots must have "
            "strictly increasing x");

  StatsCatalog recovered;
  auto report = recovered.RecoverFromString(image);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->entries_loaded, 0u);
  EXPECT_EQ(report->entries_quarantined, 1u);
  EXPECT_EQ(report->checksum_failures, 0u);
  ASSERT_EQ(report->quarantine_reasons.size(), 1u);
  EXPECT_EQ(report->quarantine_reasons[0], status.message());
  Status loaded_get = recovered.Get("aa").status();
  EXPECT_EQ(loaded_get.code(), StatusCode::kCorruption);

  std::string path = WriteImage(image, "epfis_v3_bad_knots.cat");
  auto snapshot = OpenCatalogSnapshotV3(path);
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->size(), 1u);
  EXPECT_TRUE((*snapshot)->IsQuarantined("aa"));
  EXPECT_EQ((*snapshot)->Get("aa").status().ToString(),
            loaded_get.ToString());
  auto est = EstIo::EstimateFromCatalog(**snapshot, "aa", {0.1, 1.0, 200},
                                        TableShape{1000, 40000});
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->source, EstimateSource::kFormulaFallback);
  EXPECT_EQ(est->stats_status.code(), StatusCode::kCorruption);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace epfis
