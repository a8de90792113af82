#include "catalog/catalog.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <vector>

#include "buffer/buffer_pool.h"
#include "storage/disk_manager.h"

namespace epfis {
namespace {

class CatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    disk_ = std::make_unique<DiskManager>();
    pool_ = std::make_unique<BufferPool>(disk_.get(), 8);
    auto schema = Schema::Make({Column{"a"}, Column{"b"}});
    ASSERT_TRUE(schema.ok());
    heap_ = std::make_unique<TableHeap>(pool_.get(), *schema, "t");
    tree_ = std::make_unique<BTree>(pool_.get(), "idx");
  }

  std::unique_ptr<DiskManager> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<TableHeap> heap_;
  std::unique_ptr<BTree> tree_;
  Catalog catalog_;
};

TEST_F(CatalogTest, RegisterAndLookupTable) {
  ASSERT_TRUE(catalog_.RegisterTable("t", heap_.get()).ok());
  auto info = catalog_.GetTable("t");
  ASSERT_TRUE(info.ok());
  EXPECT_EQ((*info)->heap, heap_.get());
  EXPECT_TRUE((*info)->indexes.empty());
  EXPECT_EQ(catalog_.GetTable("missing").status().code(),
            StatusCode::kNotFound);
}

TEST_F(CatalogTest, DuplicateTableRejected) {
  ASSERT_TRUE(catalog_.RegisterTable("t", heap_.get()).ok());
  EXPECT_EQ(catalog_.RegisterTable("t", heap_.get()).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(CatalogTest, NullHandlesRejected) {
  EXPECT_EQ(catalog_.RegisterTable("t", nullptr).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(catalog_.RegisterTable("t", heap_.get()).ok());
  EXPECT_EQ(catalog_.RegisterIndex("i", "t", 0, nullptr).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(CatalogTest, IndexRequiresKnownTableAndValidColumn) {
  EXPECT_EQ(catalog_.RegisterIndex("i", "nope", 0, tree_.get()).code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(catalog_.RegisterTable("t", heap_.get()).ok());
  EXPECT_EQ(catalog_.RegisterIndex("i", "t", 5, tree_.get()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(catalog_.RegisterIndex("i", "t", 1, tree_.get()).ok());
}

// The table entry carries its indexes in name order, whatever the
// registration order; that order is the optimizer's plan order.
TEST_F(CatalogTest, IndexesOnTableAndColumn) {
  ASSERT_TRUE(catalog_.RegisterTable("t", heap_.get()).ok());
  ASSERT_TRUE(catalog_.RegisterTable("other", heap_.get()).ok());
  BTree tree2(pool_.get(), "idx2");
  ASSERT_TRUE(catalog_.RegisterIndex("i1", "t", 1, &tree2).ok());
  ASSERT_TRUE(catalog_.RegisterIndex("i0", "t", 0, tree_.get()).ok());

  auto table = catalog_.GetTable("t");
  ASSERT_TRUE(table.ok());
  const std::vector<const IndexInfo*>& indexes = (*table)->indexes;
  ASSERT_EQ(indexes.size(), 2u);
  EXPECT_EQ(indexes[0]->name, "i0");
  EXPECT_EQ(indexes[0]->key_column, 0u);
  EXPECT_EQ(indexes[0]->tree, tree_.get());
  EXPECT_EQ(indexes[1]->name, "i1");
  EXPECT_EQ(indexes[1]->key_column, 1u);
  EXPECT_EQ(indexes[1]->table, "t");
  EXPECT_TRUE((*catalog_.GetTable("other"))->indexes.empty());
}

IndexStats MakeStats(const std::string& name) {
  IndexStats stats;
  stats.index_name = name;
  stats.table_pages = 774;
  stats.table_records = 15480;
  stats.distinct_keys = 131;
  stats.pages_accessed = 774;
  stats.b_min = 12;
  stats.b_max = 774;
  stats.f_min = 9000;
  stats.clustering = 0.433;
  stats.sample_rate = 0.0099999997764825821;  // A non-round effective rate.
  stats.sampled_refs = 1548;
  stats.fpf = PiecewiseLinear::FromKnots(
                  {{12, 9000.25}, {100, 4000.5}, {774, 774}})
                  .value();
  return stats;
}

TEST(StatsCatalogTest, PutGetRemove) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("CMAC.BRAN"));
  EXPECT_TRUE(catalog.Contains("CMAC.BRAN"));
  EXPECT_EQ(catalog.size(), 1u);
  auto got = catalog.Get("CMAC.BRAN");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->table_pages, 774u);
  EXPECT_FALSE(catalog.Get("other").ok());
  catalog.Remove("CMAC.BRAN");
  EXPECT_FALSE(catalog.Contains("CMAC.BRAN"));
}

TEST(StatsCatalogTest, PutReplaces) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("x"));
  IndexStats updated = MakeStats("x");
  updated.clustering = 0.9;
  catalog.Put(updated);
  EXPECT_EQ(catalog.size(), 1u);
  EXPECT_DOUBLE_EQ(catalog.Get("x")->clustering, 0.9);
}

TEST(StatsCatalogTest, SerializationRoundTrip) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("CMAC.BRAN"));
  catalog.Put(MakeStats("PLON.CLID"));

  std::string image = catalog.SaveToStringV3();
  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromString(image).ok());
  ASSERT_EQ(loaded.size(), 2u);

  auto original = catalog.Get("CMAC.BRAN").value();
  auto restored = loaded.Get("CMAC.BRAN").value();
  EXPECT_EQ(restored.table_pages, original.table_pages);
  EXPECT_EQ(restored.table_records, original.table_records);
  EXPECT_EQ(restored.distinct_keys, original.distinct_keys);
  EXPECT_EQ(restored.pages_accessed, original.pages_accessed);
  EXPECT_EQ(restored.b_min, original.b_min);
  EXPECT_EQ(restored.b_max, original.b_max);
  EXPECT_EQ(restored.f_min, original.f_min);
  EXPECT_DOUBLE_EQ(restored.clustering, original.clustering);
  // The sampling provenance survives exactly (v3 stores the non-round
  // effective rate bit for bit).
  EXPECT_EQ(restored.sample_rate, original.sample_rate);
  EXPECT_EQ(restored.sampled_refs, original.sampled_refs);
  ASSERT_TRUE(restored.fpf.has_value());
  EXPECT_EQ(restored.fpf->knots(), original.fpf->knots());
  // The curve evaluates identically after the round trip.
  for (double b : {12.0, 50.0, 300.0, 774.0, 1000.0}) {
    EXPECT_DOUBLE_EQ(restored.fpf->Eval(b), original.fpf->Eval(b));
  }
}

TEST(StatsCatalogTest, FileRoundTrip) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("idx"));
  std::string path = testing::TempDir() + "/epfis_stats_test.cat";
  ASSERT_TRUE(catalog.SaveToFileV3(path).ok());

  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  EXPECT_TRUE(loaded.Contains("idx"));
  std::remove(path.c_str());
}

TEST(StatsCatalogTest, LoadRejectsCorruptInput) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("keep"));
  std::string image = catalog.SaveToStringV3();
  EXPECT_FALSE(catalog.LoadFromString("").ok());
  EXPECT_FALSE(catalog.LoadFromString(image.substr(0, 40)).ok());
  EXPECT_FALSE(catalog.LoadFromString(image.substr(0, image.size() - 1)).ok());
  EXPECT_FALSE(catalog.LoadFromString(image + "x").ok());
  EXPECT_FALSE(catalog.LoadFromString(std::string(image.size(), '\0')).ok());
  // Failed loads leave the catalog unchanged.
  EXPECT_TRUE(catalog.Contains("keep"));
}

TEST(StatsCatalogTest, IndexNamesSorted) {
  StatsCatalog catalog;
  catalog.Put(MakeStats("zeta"));
  catalog.Put(MakeStats("alpha"));
  auto names = catalog.IndexNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_EQ(names[1], "zeta");
}

TEST(StatsCatalogTest, EmptyCatalogRoundTrip) {
  StatsCatalog catalog;
  StatsCatalog loaded;
  ASSERT_TRUE(loaded.LoadFromString(catalog.SaveToStringV3()).ok());
  EXPECT_EQ(loaded.size(), 0u);
}

}  // namespace
}  // namespace epfis
