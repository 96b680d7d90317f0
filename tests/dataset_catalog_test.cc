#include "data/synthetic/dataset_catalog.h"

#include <gtest/gtest.h>

#include "graph/components.h"

namespace emp {
namespace synthetic {
namespace {

TEST(DatasetCatalogTest, ContainsThePapersNineDatasets) {
  // Exact paper area counts (§VII-A, Table I).
  const std::pair<const char*, int32_t> expected[] = {
      {"1k", 1012},  {"2k", 2344},   {"4k", 3947},
      {"8k", 8049},  {"10k", 10255}, {"20k", 20570},
      {"30k", 29887}, {"40k", 40214}, {"50k", 49943},
  };
  for (const auto& [name, n] : expected) {
    auto info = FindDataset(name);
    ASSERT_TRUE(info.ok()) << name;
    EXPECT_EQ(info->num_areas, n) << name;
  }
}

TEST(DatasetCatalogTest, UnknownNameIsNotFound) {
  auto info = FindDataset("999k");
  ASSERT_FALSE(info.ok());
  EXPECT_EQ(info.status().code(), StatusCode::kNotFound);
}

TEST(DatasetCatalogTest, MakeTinyDataset) {
  auto areas = MakeCatalogDataset("tiny");
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), 120);
  EXPECT_EQ(areas->dissimilarity_attribute(), "HOUSEHOLDS");
  EXPECT_TRUE(areas->attributes().HasColumn("POP16UP"));
  EXPECT_TRUE(areas->attributes().HasColumn("EMPLOYED"));
  EXPECT_TRUE(areas->attributes().HasColumn("TOTALPOP"));
}

TEST(DatasetCatalogTest, ScaleShrinksAreaCount) {
  auto areas = MakeCatalogDataset("1k", 0.2);
  ASSERT_TRUE(areas.ok());
  EXPECT_NEAR(areas->num_areas(), 202, 3);
}

TEST(DatasetCatalogTest, ScaleValidation) {
  EXPECT_FALSE(MakeCatalogDataset("1k", 0.0).ok());
  EXPECT_FALSE(MakeCatalogDataset("1k", 1.5).ok());
}

TEST(DatasetCatalogTest, DeterministicAcrossCalls) {
  auto a = MakeCatalogDataset("tiny");
  auto b = MakeCatalogDataset("tiny");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int32_t i = 0; i < a->num_areas(); ++i) {
    EXPECT_DOUBLE_EQ(a->attributes().Value(2, i), b->attributes().Value(2, i));
  }
}

TEST(DatasetCatalogTest, MakeDefaultDatasetWithComponents) {
  auto areas = MakeDefaultDataset("isles", 200, 77, 2);
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(areas->num_areas(), 200);
  EXPECT_EQ(areas->name(), "isles");
}

// The map build runs its cells and noise samples on the worker pool; the
// digests were recorded from the serial build, so neither the core count
// nor the block split may change them.
TEST(DatasetCatalogTest, TenKayDigestIsPinned) {
  auto areas = MakeCatalogDataset("10k");
  ASSERT_TRUE(areas.ok());
  // The digest `emp_cli pack --dataset 10k` prints.
  EXPECT_EQ(areas->InstanceDigest(), 0x27b07377e6a52551ULL);
}

TEST(DatasetCatalogTest, MultiIslandDigestIsPinned) {
  // Three islands of 5,000 areas: each island's cells span two blocks.
  auto areas = MakeDefaultDataset("isles", 15000, 11, 3);
  ASSERT_TRUE(areas.ok());
  EXPECT_EQ(ConnectedComponents(areas->graph()).count, 3);
  EXPECT_EQ(areas->InstanceDigest(), 0x57dceba6d73873dfULL);
}

}  // namespace
}  // namespace synthetic
}  // namespace emp
