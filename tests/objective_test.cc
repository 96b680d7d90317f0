#include "core/local_search/objective.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic/dataset_catalog.h"
#include "test_util.h"

namespace emp {
namespace {

/// Brute-force exterior perimeter of a region for cross-checking.
double NaiveRegionPerimeter(const AreaSet& areas,
                            const std::vector<int32_t>& members) {
  std::vector<char> in(static_cast<size_t>(areas.num_areas()), 0);
  for (int32_t a : members) in[static_cast<size_t>(a)] = 1;
  double total = 0;
  for (int32_t a : members) {
    total += areas.polygon(a).Perimeter();
    for (int32_t nb : areas.graph().NeighborsOf(a)) {
      if (in[static_cast<size_t>(nb)]) {
        total -= SharedBorderLength(areas.polygon(a), areas.polygon(nb));
      }
    }
  }
  return total;
}

class CompactnessTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto areas = synthetic::MakeCatalogDataset("tiny");
    ASSERT_TRUE(areas.ok());
    areas_ = new AreaSet(std::move(areas).value());
    bound_ = new BoundConstraints(
        std::move(BoundConstraints::Create(areas_, {Constraint::Count(1, 200)}))
            .value());
  }
  static void TearDownTestSuite() {
    delete bound_;
    delete areas_;
    bound_ = nullptr;
    areas_ = nullptr;
  }

  /// Splits the map into two halves by area id.
  Partition HalfSplit() {
    Partition p(bound_);
    int32_t r1 = p.CreateRegion();
    int32_t r2 = p.CreateRegion();
    for (int32_t a = 0; a < areas_->num_areas(); ++a) {
      p.Assign(a, a < areas_->num_areas() / 2 ? r1 : r2);
    }
    return p;
  }

  static AreaSet* areas_;
  static BoundConstraints* bound_;
};

AreaSet* CompactnessTest::areas_ = nullptr;
BoundConstraints* CompactnessTest::bound_ = nullptr;

TEST_F(CompactnessTest, RequiresGeometry) {
  AreaSet flat = test::PathAreaSet({1, 2});
  auto bc = BoundConstraints::Create(&flat, {});
  ASSERT_TRUE(bc.ok());
  Partition p(&*bc);
  EXPECT_FALSE(CompactnessObjective::Create(p).ok());
}

TEST_F(CompactnessTest, TotalMatchesNaivePerimeterSum) {
  Partition p = HalfSplit();
  auto obj = CompactnessObjective::Create(p);
  ASSERT_TRUE(obj.ok());
  double expected = 0;
  for (int32_t rid : p.AliveRegionIds()) {
    expected += NaiveRegionPerimeter(*areas_, p.region(rid).areas);
  }
  EXPECT_NEAR((*obj)->total(), expected, 1e-6);
}

TEST_F(CompactnessTest, MoveDeltaMatchesRecompute) {
  Partition p = HalfSplit();
  auto obj = CompactnessObjective::Create(p);
  ASSERT_TRUE(obj.ok());
  // Pick a boundary area of region 0 adjacent to region 1.
  int32_t mover = -1;
  for (int32_t a : p.BoundaryAreas(0)) {
    for (int32_t nb : areas_->graph().NeighborsOf(a)) {
      if (p.RegionOf(nb) == 1) {
        mover = a;
        break;
      }
    }
    if (mover != -1) break;
  }
  ASSERT_NE(mover, -1);
  double before = (*obj)->total();
  double delta = (*obj)->MoveDelta(mover, 0, 1);
  (*obj)->ApplyMove(mover, 0, 1);
  p.Move(mover, 1);
  double expected_after = 0;
  for (int32_t rid : p.AliveRegionIds()) {
    expected_after += NaiveRegionPerimeter(*areas_, p.region(rid).areas);
  }
  EXPECT_NEAR((*obj)->total(), before + delta, 1e-6);
  EXPECT_NEAR((*obj)->total(), expected_after, 1e-6);
}

TEST_F(CompactnessTest, HeterogeneityObjectiveDelegatesToTracker) {
  Partition p = HalfSplit();
  HeterogeneityObjective obj(p);
  EXPECT_NEAR(obj.total(), ComputeHeterogeneity(p), 1e-6);
  EXPECT_EQ(obj.name(), "heterogeneity");
}

TEST_F(CompactnessTest, ObjectiveNamesDiffer) {
  Partition p = HalfSplit();
  auto obj = CompactnessObjective::Create(p);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ((*obj)->name(), "compactness");
}

TEST_F(CompactnessTest, WeightedObjectiveCombinesComponents) {
  Partition p = HalfSplit();
  HeterogeneityObjective het(p);
  auto compact = CompactnessObjective::Create(p);
  ASSERT_TRUE(compact.ok());
  WeightedObjective combined;
  combined.Add(&het, 1.0);
  combined.Add(compact->get(), 10.0);
  EXPECT_NEAR(combined.total(), het.total() + 10.0 * (*compact)->total(),
              1e-6);
  EXPECT_EQ(combined.name(), "weighted(heterogeneity+compactness)");

  // Deltas combine linearly and ApplyMove keeps components in sync.
  int32_t mover = -1;
  for (int32_t a : p.BoundaryAreas(0)) {
    for (int32_t nb : areas_->graph().NeighborsOf(a)) {
      if (p.RegionOf(nb) == 1) {
        mover = a;
        break;
      }
    }
    if (mover != -1) break;
  }
  ASSERT_NE(mover, -1);
  double delta = combined.MoveDelta(mover, 0, 1);
  EXPECT_NEAR(delta,
              het.MoveDelta(mover, 0, 1) +
                  10.0 * (*compact)->MoveDelta(mover, 0, 1),
              1e-6);
  double before = combined.total();
  combined.ApplyMove(mover, 0, 1);
  p.Move(mover, 1);
  EXPECT_NEAR(combined.total(), before + delta, 1e-6);
}

TEST_F(CompactnessTest, SplitTermsReproduceMoveDelta) {
  // ReceiverTerm − DonorTerm is the delta the tabu neighborhood scores, so
  // it must equal MoveDelta on every boundary move: bit for bit for
  // heterogeneity, and up to re-associated sums for the others.
  Partition p = HalfSplit();
  HeterogeneityObjective het(p);
  auto compact = CompactnessObjective::Create(p);
  ASSERT_TRUE(compact.ok());
  WeightedObjective combined;
  combined.Add(&het, 1.0);
  combined.Add(compact->get(), 500.0);
  auto near = [](double split, double whole) {
    return std::abs(split - whole) <=
           1e-9 * std::max(1.0, std::max(std::abs(split), std::abs(whole)));
  };
  int moves = 0;
  for (int32_t a = 0; a < areas_->num_areas(); ++a) {
    const int32_t from = p.RegionOf(a);
    for (int32_t nb : areas_->graph().NeighborsOf(a)) {
      const int32_t to = p.RegionOf(nb);
      if (to == from) continue;
      ++moves;
      EXPECT_EQ(het.ReceiverTerm(a, to) - het.DonorTerm(a, from),
                het.MoveDelta(a, from, to))
          << "area " << a;
      const Objective& c = **compact;
      EXPECT_PRED2(near, c.ReceiverTerm(a, to) - c.DonorTerm(a, from),
                   c.MoveDelta(a, from, to))
          << "area " << a;
      EXPECT_PRED2(near,
                   combined.ReceiverTerm(a, to) - combined.DonorTerm(a, from),
                   combined.MoveDelta(a, from, to))
          << "area " << a;
    }
  }
  EXPECT_GT(moves, 0);
}

}  // namespace
}  // namespace emp
